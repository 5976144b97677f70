#include "trace/trace_reader.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/fault.hh"
#include "trace/trace_io.hh"

namespace bop
{

namespace
{

/** Quote @p s for /bin/sh: single quotes, ' spelled '\''. */
std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (const char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

std::string
stripCompressionSuffix(const std::string &path)
{
    for (const char *suffix : {".gz", ".xz"}) {
        const std::size_t n = std::strlen(suffix);
        if (path.size() > n &&
            path.compare(path.size() - n, n, suffix) == 0)
            return path.substr(0, path.size() - n);
    }
    return path;
}

bool
hasSuffix(const std::string &path, const std::string &suffix)
{
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

// Offsets inside one 64-byte ChampSim input_instr record.
constexpr std::size_t csIp = 0;
constexpr std::size_t csIsBranch = 8;
constexpr std::size_t csBranchTaken = 9;
constexpr std::size_t csDestRegs = 10; ///< 2 x u8
constexpr std::size_t csSrcRegs = 12;  ///< 4 x u8
constexpr std::size_t csDestMem = 16;  ///< 2 x u64
constexpr std::size_t csSrcMem = 32;   ///< 4 x u64
constexpr std::size_t csNumDest = 2;
constexpr std::size_t csNumSrc = 4;

} // namespace

const char *
traceFormatName(TraceFormat format)
{
    switch (format) {
      case TraceFormat::Boptrace:
        return "boptrace";
      case TraceFormat::ChampSim:
        return "champsim";
    }
    return "unknown";
}

const char *
traceCompressionName(TraceCompression compression)
{
    switch (compression) {
      case TraceCompression::None:
        return "none";
      case TraceCompression::Gzip:
        return "gzip";
      case TraceCompression::Xz:
        return "xz";
    }
    return "unknown";
}

// -- ByteStream ---------------------------------------------------------------

std::size_t
ByteStream::read(unsigned char *buf, std::size_t n)
{
    std::size_t got = 0;
    while (got < n && !pushback.empty()) {
        buf[got++] = pushback.back();
        pushback.pop_back();
    }
    if (got < n)
        got += readRaw(buf + got, n - got);
    consumed += got;
    return got;
}

bool
ByteStream::readExact(unsigned char *buf, std::size_t n)
{
    const std::size_t got = read(buf, n);
    if (got == 0)
        return false;
    if (got < n) {
        throw std::runtime_error(
            "unexpected end of stream at byte offset " +
            std::to_string(offset()) + " (needed " + std::to_string(n) +
            " bytes, got " + std::to_string(got) + ")");
    }
    return true;
}

void
ByteStream::unread(const unsigned char *buf, std::size_t n)
{
    // Stored reversed so read() pops in the original order.
    for (std::size_t i = n; i > 0; --i)
        pushback.push_back(buf[i - 1]);
    consumed -= n;
}

std::uint64_t
ByteStream::skip(std::uint64_t n)
{
    std::uint64_t done = 0;
    while (done < n && !pushback.empty()) {
        pushback.pop_back();
        ++done;
    }
    done += skipRaw(n - done);
    consumed += done;
    return done;
}

std::uint64_t
ByteStream::skipRaw(std::uint64_t n)
{
    unsigned char scratch[4096];
    std::uint64_t done = 0;
    while (done < n) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - done, sizeof(scratch)));
        const std::size_t got = readRaw(scratch, want);
        done += got;
        if (got < want)
            break; // EOF
    }
    return done;
}

FileByteStream::FileByteStream(const std::string &path)
    : in(path, std::ios::binary)
{
    if (!in)
        throw std::runtime_error("cannot open trace file " + path);
    in.seekg(0, std::ios::end);
    size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0, std::ios::beg);
}

std::size_t
FileByteStream::readRaw(unsigned char *buf, std::size_t n)
{
    in.read(reinterpret_cast<char *>(buf),
            static_cast<std::streamsize>(n));
    return static_cast<std::size_t>(in.gcount());
}

std::uint64_t
FileByteStream::skipRaw(std::uint64_t n)
{
    const std::uint64_t pos = static_cast<std::uint64_t>(in.tellg());
    const std::uint64_t remaining = pos < size ? size - pos : 0;
    const std::uint64_t k = std::min(n, remaining);
    in.seekg(static_cast<std::streamoff>(k), std::ios::cur);
    return k;
}

PipeByteStream::PipeByteStream(const std::string &tool,
                               const std::string &path)
    : command(tool + " -dc " + shellQuote(path))
{
    pipe = ::popen(command.c_str(), "r");
    if (!pipe) {
        throw std::runtime_error("cannot spawn decompressor: " +
                                 command);
    }
}

PipeByteStream::~PipeByteStream()
{
    // Destructors must not throw; readers that reach EOF have already
    // checked the exit status via finish().
    if (pipe) {
        ::pclose(pipe);
        pipe = nullptr;
    }
}

std::size_t
PipeByteStream::readRaw(unsigned char *buf, std::size_t n)
{
    if (!pipe)
        return 0;
    std::size_t got = 0;
    int retries = 0;
    while (got < n) {
        // Injection point trace_read_eio (docs/ROBUSTNESS.md): one
        // transient read failure on the Nth readRaw call, recovered
        // by the same bounded retry that handles a real EINTR — the
        // decompressed bytes are identical to an uninjected run.
        if (FaultPlan::global().fireCounted("trace_read_eio")) {
            ++retries;
            std::fprintf(stderr,
                         "trace: transient read error (injected) at "
                         "decompressed byte %llu, retry %d/%d: %s\n",
                         static_cast<unsigned long long>(offset() + got),
                         retries, maxTransientRetries, command.c_str());
            continue;
        }

        got += std::fread(buf + got, 1, n - got, pipe);
        if (got == n)
            break;

        if (std::ferror(pipe)) {
            const int err = errno;
            if ((err == EINTR || err == EAGAIN) &&
                retries < maxTransientRetries) {
                ++retries;
                std::clearerr(pipe);
                std::fprintf(
                    stderr,
                    "trace: transient read error (%s) at decompressed "
                    "byte %llu, retry %d/%d: %s\n",
                    std::strerror(err),
                    static_cast<unsigned long long>(offset() + got),
                    retries, maxTransientRetries, command.c_str());
                continue;
            }
            // Retry budget exhausted (or a non-EINTR/EAGAIN errno):
            // classified TransientIoError so the error record carries
            // kind "io" — the one kind the farm/serve bounded-retry
            // loop (--retries) may rerun the whole job for.
            throw TransientIoError(
                "read error from decompressor (" +
                std::string(std::strerror(err)) + ") after " +
                std::to_string(offset() + got) +
                " decompressed byte(s): " + command);
        }

        // Clean EOF from the child: collect its exit status so a
        // decompressor killed mid-stream surfaces here with the byte
        // offset, never as silently truncated trace data.
        finish(offset() + got);
        break;
    }
    return got;
}

void
PipeByteStream::finish(std::uint64_t decompressed)
{
    if (!pipe)
        return;
    const int status = ::pclose(pipe);
    pipe = nullptr;
    if (status != 0) {
        throw std::runtime_error(
            "decompressor failed (exit status " + std::to_string(status) +
            ") after " + std::to_string(decompressed) +
            " decompressed byte(s): " + command);
    }
}

std::pair<std::unique_ptr<ByteStream>, TraceCompression>
openByteStream(const std::string &path)
{
    auto file = std::make_unique<FileByteStream>(path);
    unsigned char magic[6] = {};
    const std::size_t got = file->read(magic, sizeof(magic));

    if (got >= 2 && magic[0] == 0x1f && magic[1] == 0x8b) {
        return {std::make_unique<PipeByteStream>("gzip", path),
                TraceCompression::Gzip};
    }
    static const unsigned char xzMagic[6] = {0xfd, '7', 'z',
                                             'X',  'Z', 0x00};
    if (got >= 6 && std::memcmp(magic, xzMagic, 6) == 0) {
        return {std::make_unique<PipeByteStream>("xz", path),
                TraceCompression::Xz};
    }
    file->unread(magic, got);
    return {std::move(file), TraceCompression::None};
}

// -- BoptraceReader -----------------------------------------------------------

BoptraceReader::BoptraceReader(std::unique_ptr<ByteStream> stream,
                               TraceCompression compression,
                               std::string path_)
    : in(std::move(stream)), comp(compression), path(std::move(path_))
{
    unsigned char header[24];
    if (!in->readExact(header, sizeof(header)) ||
        std::memcmp(header, traceMagic, 8) != 0)
        throw std::runtime_error("bad BOPTRACE magic in " + path);
    std::uint32_t ver = 0;
    for (int i = 0; i < 4; ++i)
        ver |= static_cast<std::uint32_t>(header[8 + i]) << (8 * i);
    if (ver != traceVersion) {
        throw std::runtime_error("unsupported BOPTRACE version " +
                                 std::to_string(ver) + " in " + path);
    }
    count = getLE64(header + 16);
    if (count == 0)
        throw std::runtime_error("empty trace " + path);

    // When the payload size is knowable up front, reject any file
    // whose length disagrees with the header record count — a short
    // file would otherwise silently replay a partial loop, a long one
    // hides trailing garbage. Report where the disagreement starts.
    if (const auto total = in->totalBytes()) {
        const std::uint64_t expected =
            sizeof(header) + count * traceRecordBytes;
        if (*total != expected) {
            throw std::runtime_error(
                path + ": header declares " + std::to_string(count) +
                " records (" + std::to_string(expected) +
                " bytes) but the file is " + std::to_string(*total) +
                " bytes — " +
                (*total < expected ? "truncated at" : "trailing data from") +
                " byte offset " +
                std::to_string(std::min(*total, expected)));
        }
    }
}

bool
BoptraceReader::next(TraceInstr &out)
{
    if (produced == count)
        return false;
    unsigned char buf[traceRecordBytes];
    if (!in->readExact(buf, sizeof(buf))) {
        throw std::runtime_error(
            path + ": truncated at byte offset " +
            std::to_string(in->offset()) + " — header declares " +
            std::to_string(count) + " records, stream ended after " +
            std::to_string(produced));
    }
    out = decodeTraceInstr(buf);
    ++produced;
    return true;
}

std::uint64_t
TraceReader::skipInstructions(std::uint64_t n)
{
    TraceInstr discard;
    std::uint64_t done = 0;
    while (done < n && next(discard))
        ++done;
    return done;
}

std::uint64_t
BoptraceReader::skipInstructions(std::uint64_t n)
{
    const std::uint64_t k = std::min(n, count - produced);
    const std::uint64_t skipped = in->skip(k * traceRecordBytes);
    if (skipped != k * traceRecordBytes) {
        throw std::runtime_error(
            path + ": truncated at byte offset " +
            std::to_string(in->offset()) + " — header declares " +
            std::to_string(count) + " records, skip of " +
            std::to_string(k) + " from record " +
            std::to_string(produced) + " ran off the end");
    }
    produced += k;
    return k;
}

// -- ChampSimReader -----------------------------------------------------------

ChampSimReader::ChampSimReader(std::unique_ptr<ByteStream> stream,
                               TraceCompression compression,
                               std::string path_)
    : in(std::move(stream)), comp(compression), path(std::move(path_))
{
    // Before the first load-bearing record the canonical load-result
    // register is considered live, so a capture window that opens on
    // instructions depending on an uncaptured load round-trips. A
    // dependence with no preceding load is inert in the core model,
    // so this is harmless for foreign traces.
    lastLoadDest = {champsimRegLoadDest, 0};
    haveLoadDest = true;

    if (const auto total = in->totalBytes()) {
        if (*total == 0)
            throw std::runtime_error("empty trace " + path);
        if (*total % champsimRecordBytes != 0) {
            throw std::runtime_error(
                path + ": not a whole number of " +
                std::to_string(champsimRecordBytes) +
                "-byte ChampSim records (" + std::to_string(*total) +
                " bytes; trailing partial record at byte offset " +
                std::to_string(*total - *total % champsimRecordBytes) +
                ")");
        }
    }
}

bool
ChampSimReader::refill()
{
    unsigned char buf[champsimRecordBytes];
    try {
        if (!in->readExact(buf, sizeof(buf)))
            return false;
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(path + ": truncated ChampSim record: " +
                                 e.what());
    }

    const Addr pc = getLE64(buf + csIp);
    const bool isBranch = buf[csIsBranch] != 0;
    const bool taken = buf[csBranchTaken] != 0;

    // Dataflow: does this instruction read a register the most recent
    // load produced?
    bool dep = false;
    for (std::size_t s = 0; s < csNumSrc && !dep; ++s) {
        const unsigned char reg = buf[csSrcRegs + s];
        if (reg == 0 || !haveLoadDest)
            continue;
        dep = reg == lastLoadDest[0] || reg == lastLoadDest[1];
    }

    bool fp = false;
    for (std::size_t s = 0; s < csNumSrc && !fp; ++s)
        fp = buf[csSrcRegs + s] == champsimRegFpMarker;

    bool emitted = false;
    bool emittedLoad = false;
    auto emit = [&](InstrKind kind, Addr vaddr, bool takenFlag) {
        TraceInstr instr;
        instr.kind = kind;
        instr.pc = pc;
        instr.vaddr = vaddr;
        instr.taken = takenFlag;
        instr.dependsOnPrevLoad = dep;
        pending.push_back(instr);
        emitted = true;
    };

    for (std::size_t s = 0; s < csNumSrc; ++s) {
        const Addr vaddr = getLE64(buf + csSrcMem + 8 * s);
        if (vaddr != 0) {
            emit(InstrKind::Load, vaddr, false);
            emittedLoad = true;
        }
    }
    for (std::size_t d = 0; d < csNumDest; ++d) {
        const Addr vaddr = getLE64(buf + csDestMem + 8 * d);
        if (vaddr != 0)
            emit(InstrKind::Store, vaddr, false);
    }
    if (isBranch)
        emit(InstrKind::Branch, 0, taken);
    if (!emitted)
        emit(fp ? InstrKind::FpOp : InstrKind::IntOp, 0, false);

    if (emittedLoad) {
        lastLoadDest = {buf[csDestRegs], buf[csDestRegs + 1]};
        // All-zero destination slots mean the load's result register
        // is unknown; nothing downstream can match it.
        haveLoadDest = lastLoadDest[0] != 0 || lastLoadDest[1] != 0;
    }
    return true;
}

bool
ChampSimReader::next(TraceInstr &out)
{
    if (pending.empty() && !refill())
        return false;
    out = pending.front();
    pending.pop_front();
    return true;
}

// -- autodetection ------------------------------------------------------------

std::unique_ptr<TraceReader>
openTraceReader(const std::string &path)
{
    auto [stream, compression] = openByteStream(path);

    unsigned char magic[8] = {};
    const std::size_t got = stream->read(magic, sizeof(magic));
    stream->unread(magic, got);

    if (got == sizeof(magic) &&
        std::memcmp(magic, traceMagic, sizeof(magic)) == 0) {
        return std::make_unique<BoptraceReader>(std::move(stream),
                                                compression, path);
    }
    // Extension fallback: a `.bt` file without the magic is corrupt —
    // reject rather than reinterpret it as headerless ChampSim data.
    if (hasSuffix(stripCompressionSuffix(path), ".bt")) {
        throw std::runtime_error("bad BOPTRACE magic in " + path +
                                 " (.bt file without BOPTRACE header)");
    }
    return std::make_unique<ChampSimReader>(std::move(stream),
                                            compression, path);
}

// -- ChampSim writer ----------------------------------------------------------

void
encodeChampSimInstr(const TraceInstr &instr, unsigned char *buf)
{
    std::memset(buf, 0, champsimRecordBytes);
    putLE64(buf + csIp, instr.pc);
    switch (instr.kind) {
      case InstrKind::Load:
        putLE64(buf + csSrcMem, instr.vaddr);
        buf[csDestRegs] = champsimRegLoadDest;
        break;
      case InstrKind::Store:
        putLE64(buf + csDestMem, instr.vaddr);
        break;
      case InstrKind::Branch:
        buf[csIsBranch] = 1;
        buf[csBranchTaken] = instr.taken ? 1 : 0;
        break;
      case InstrKind::FpOp:
        buf[csSrcRegs + 1] = champsimRegFpMarker;
        break;
      case InstrKind::IntOp:
        break;
    }
    if (instr.dependsOnPrevLoad)
        buf[csSrcRegs] = champsimRegLoadDest;
}

ChampSimTraceWriter::ChampSimTraceWriter(const std::string &path_)
    : out(path_, std::ios::binary | std::ios::trunc), path(path_)
{
    if (!out) {
        throw std::runtime_error("ChampSimTraceWriter: cannot open " +
                                 path);
    }
}

ChampSimTraceWriter::~ChampSimTraceWriter()
{
    try {
        close();
    } catch (...) {
    }
}

void
ChampSimTraceWriter::append(const TraceInstr &instr)
{
    if (closed)
        throw std::runtime_error("ChampSimTraceWriter: append after close");
    unsigned char buf[champsimRecordBytes];
    encodeChampSimInstr(instr, buf);
    out.write(reinterpret_cast<const char *>(buf), sizeof(buf));
    ++numRecords;
}

void
ChampSimTraceWriter::close()
{
    if (closed)
        return;
    closed = true;
    out.close();
    if (!out) {
        throw std::runtime_error("ChampSimTraceWriter: error closing " +
                                 path);
    }
}

TraceFormat
traceFormatForPath(const std::string &path)
{
    const std::string base = stripCompressionSuffix(path);
    for (const char *suffix : {".champsim", ".champsimtrace", ".trace"})
        if (hasSuffix(base, suffix))
            return TraceFormat::ChampSim;
    return TraceFormat::Boptrace;
}

std::unique_ptr<TraceSink>
makeTraceSink(const std::string &path, TraceFormat format)
{
    if (format == TraceFormat::ChampSim)
        return std::make_unique<ChampSimTraceWriter>(path);
    return std::make_unique<TraceWriter>(path);
}

} // namespace bop
