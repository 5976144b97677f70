# Fails when a source, test, tool, bench or example file cites a
# Markdown document that does not exist:
#
#   cmake -DROOT=path/to/repo -P check_doc_citations.cmake
#
# A citation is any token ending in ".md". It resolves against the
# repository root or against the citing file's directory. A token that
# starts with "/" is the tail of a path built at run time and is
# skipped.
if(NOT ROOT)
    message(FATAL_ERROR
        "usage: cmake -DROOT=<repo> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

set(patterns "${ROOT}/CMakeLists.txt")
foreach(dir src tests tools bench examples perfbench)
    foreach(ext cc hh h c py sh cmake txt)
        list(APPEND patterns "${ROOT}/${dir}/*.${ext}")
    endforeach()
endforeach()
file(GLOB_RECURSE files ${patterns})

set(missing "")
set(checked 0)
foreach(file ${files})
    file(STRINGS "${file}" lines REGEX "\\.md")
    get_filename_component(dir "${file}" DIRECTORY)
    file(RELATIVE_PATH shown "${ROOT}" "${file}")
    foreach(line IN LISTS lines)
        string(REGEX MATCHALL "[A-Za-z0-9_./-]+\\.md" cites "${line}")
        foreach(cite ${cites})
            if(cite MATCHES "^/")
                continue()
            endif()
            math(EXPR checked "${checked} + 1")
            if(NOT EXISTS "${ROOT}/${cite}" AND NOT EXISTS "${dir}/${cite}")
                list(APPEND missing "${shown}: ${cite}")
            endif()
        endforeach()
    endforeach()
endforeach()

if(missing)
    list(REMOVE_DUPLICATES missing)
    list(JOIN missing "\n  " text)
    message(FATAL_ERROR "cited documents that do not exist:\n  ${text}")
endif()
message(STATUS "${checked} document citations resolve")
