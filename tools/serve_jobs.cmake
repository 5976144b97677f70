# Replays a file of `bopsim --serve` job lines and writes the answered
# run records, for golden tests that pin several design points at once:
#
#   cmake -DBOPSIM=path/to/bopsim -DJOBS=jobs.ndjson -DOUT=records.ndjson
#         -P serve_jobs.cmake
execute_process(COMMAND ${BOPSIM} --serve
    INPUT_FILE ${JOBS}
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "bopsim --serve exited with ${status}")
endif()
