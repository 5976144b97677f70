#include "harness/json_report.hh"

#include <cstdio>
#include <fstream>
#include <iomanip>

namespace bop
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeRunRecord(std::ostream &os, const RunRecord &record)
{
    if (record.errored()) {
        // Failed jobs keep their slot in the record stream (same
        // deterministic job_index, submission-order position) but
        // carry the error object grammar — never partial stats that
        // could be mistaken for a measured run. docs/ROBUSTNESS.md is
        // normative for this shape.
        os << "{"
           << "\"error\": \"job failed\", "
           << "\"kind\": \"" << jsonEscape(record.errorKind) << "\", "
           << "\"detail\": \"" << jsonEscape(record.errorDetail) << "\", "
           << "\"workload\": \"" << jsonEscape(record.workload) << "\", "
           << "\"config\": \"" << jsonEscape(record.config) << "\", "
           << "\"jobs\": " << record.jobs << ", "
           << "\"job_index\": " << record.jobIndex << ", "
           << "\"attempts\": " << record.attempts << "}";
        return;
    }

    const RunStats &s = record.stats;
    os << "{"
       << "\"workload\": \"" << jsonEscape(record.workload) << "\", "
       << "\"config\": \"" << jsonEscape(record.config) << "\", "
       << "\"trace_source\": \""
       << jsonEscape(record.traceSource.empty() ? "generator"
                                                : record.traceSource)
       << "\", "
       << std::setprecision(6) << std::fixed
       << "\"ipc\": " << s.ipc() << ", "
       << "\"cycles\": " << s.cycles << ", "
       << "\"instructions\": " << s.instructions << ", "
       << "\"l2_mpki\": " << s.l2Mpki() << ", "
       << "\"prefetch_coverage\": " << s.prefetchCoverage() << ", "
       << "\"prefetch_accuracy\": " << s.prefetchAccuracy() << ", "
       << "\"prefetch_timeliness\": " << s.prefetchTimeliness() << ", "
       << "\"dram_reads\": " << s.dramReads << ", "
       << "\"dram_writes\": " << s.dramWrites << ", "
       << "\"dram_per_1k_instr\": " << s.dramPer1kInstr() << ", "
       << "\"l3_channel_stalls\": " << s.l3ChannelStalls << ", "
       << "\"bo_final_offset\": " << s.boFinalOffset << ", "
       << "\"jobs\": " << record.jobs << ", "
       << "\"job_index\": " << record.jobIndex << ", "
       << "\"attempts\": " << record.attempts << ", "
       << "\"wall_seconds\": " << record.wallSeconds << ", "
       << "\"queue_wait_seconds\": " << record.queueWaitSeconds << ", "
       << "\"sim_mcycles_per_s\": " << record.mcyclesPerSecond() << ", "
       << "\"retired_minstr_per_s\": " << record.minstrPerSecond() << ", "
       << "\"checkpoint\": \""
       << jsonEscape(record.checkpoint.empty() ? "none"
                                               : record.checkpoint)
       << "\"}";
    os << std::defaultfloat;
}

void
writeRunRecords(std::ostream &os, const std::vector<RunRecord> &records)
{
    os << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        os << "  ";
        writeRunRecord(os, records[i]);
        if (i + 1 < records.size())
            os << ",";
        os << "\n";
    }
    os << "]\n";
}

bool
writeRunRecordsFile(const std::string &path,
                    const std::vector<RunRecord> &records)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "json_report: cannot open '%s' for writing\n",
                     path.c_str());
        return false;
    }
    writeRunRecords(out, records);
    return static_cast<bool>(out);
}

} // namespace bop
