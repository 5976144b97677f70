/**
 * @file
 * The harness knobs as one struct, read once: the BOP_* environment
 * first, then command-line flags. bopsim and every bench binary parse
 * them through the same table, which also prints their usage lines and
 * generates the README's option table. Each row names the binaries
 * that take its flag and its variable, so sharing the table gives no
 * binary an option it did not have.
 *
 * This header also owns the one rule for reading numbers from outside
 * input: flags, BOP_* values, serve job lines and journal replay all
 * take a value whole or refuse it, so `--warmup 1k` or `BOP_INSTR=abc`
 * is refused with the option's name instead of silently read as its
 * leading digits.
 */

#ifndef BOP_HARNESS_OPTIONS_HH
#define BOP_HARNESS_OPTIONS_HH

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace bop
{

/** The binaries that read runner options (distinct bits). */
enum class OptionReader : unsigned
{
    Bopsim = 1u, ///< tools/bopsim
    Bench = 2u,  ///< the bench binaries and the examples
};

/** Instruction budgets for one simulation run. */
struct Budget
{
    std::uint64_t warmup = 100000;
    std::uint64_t measure = 400000;
};

/** Everything ExperimentRunner, SweepFarm and serveLoop are told. */
struct RunnerOptions
{
    Budget budget; ///< --warmup / --instr, BOP_WARMUP / BOP_INSTR
    /** Warm-up prefix sharing for jobs that do not choose
     *  (BOP_CKPT_SHARE); a serve line's "checkpoint" overrides it. */
    bool share = false;
    double jobTimeout = 0.0;   ///< seconds, 0 = none (--job-timeout)
    int retries = 0;           ///< extra attempts on transient failure
    std::string checkpointDir; ///< disk prefix cache, "" = off
    int jobs = 1;              ///< farm/serve workers, >= 1
    std::size_t backlog = 0;   ///< in-flight bound, 0 = 4 * jobs
    std::string journalPath;   ///< write-ahead journal, "" = off
    std::string resumePath;    ///< journal to replay first, "" = off

    /**
     * Defaults, overridden by every BOP_* variable @p reader reads
     * that is set to a non-empty value. Throws std::invalid_argument
     * naming the variable on a bad value.
     */
    static RunnerOptions fromEnv(OptionReader reader);

    /**
     * When argv[i] is a runner flag @p reader takes, store its value,
     * leave @p i on the value's index and return true; otherwise
     * return false. Throws std::invalid_argument naming the flag on a
     * missing or bad value.
     */
    bool parseFlag(OptionReader reader, int argc, char **argv, int &i);
};

/** Usage lines for the runner flags and variables @p reader reads. */
void printRunnerOptionsUsage(std::ostream &os, OptionReader reader);

/** The same rows as a Markdown table (README "Runner options"). */
std::string runnerOptionsMarkdown();

/**
 * Store @p value into @p out when it is a whole number that T can
 * hold; otherwise return false and leave @p out untouched. Parsed
 * numbers are doubles, and casting a fractional, negative-into-
 * unsigned or out-of-range double is lossy or undefined behaviour,
 * so readers of outside input (serve job lines, journal replay)
 * convert their integer fields through this.
 */
template <typename T>
bool
wholeNumber(double value, T &out)
{
    // Both bounds are exact doubles (max() + 1 is a power of two), and
    // NaN fails every comparison.
    constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double hi =
        static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
    if (!(value >= lo && value < hi) || value != std::floor(value))
        return false;
    out = static_cast<T>(value);
    return true;
}

/**
 * Parse @p text as one finite number in its entirety: "1k", "abc",
 * "0x10", " 5" and "" all fail, so a mistyped flag or environment
 * value is refused instead of read as its leading digits.
 */
inline bool
numberText(const std::string &text, double &out)
{
    // strtod alone would skip leading space and read hex, inf and nan.
    if (text.empty() ||
        text.find_first_not_of("0123456789+-.eE") != std::string::npos)
        return false;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

/**
 * Text form of wholeNumber(), for command-line flags and BOP_*
 * environment values. Integer spellings convert exactly (seeds use all
 * 64 bits); any other spelling must pass numberText() and then
 * wholeNumber(), so "1e3" reads as 1000 exactly as in a serve job line
 * while "1.5" and "1k" fail.
 */
template <typename T>
bool
wholeNumber(const std::string &text, T &out)
{
    const char *last = text.data() + text.size();
    T value{};
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec == std::errc() && end == last) {
        out = value;
        return true;
    }
    double number = 0.0;
    return numberText(text, number) && wholeNumber(number, out);
}

/**
 * Parse @p text, the value of option @p name, as a whole number of
 * type T no smaller than @p min. Throws std::invalid_argument naming
 * the option otherwise.
 */
template <typename T>
T
wholeOption(const std::string &name, const std::string &text,
            T min = std::numeric_limits<T>::lowest())
{
    T value{};
    if (!wholeNumber(text, value) || value < min) {
        throw std::invalid_argument(
            name + ": '" + text + "' is not a whole number " +
            (min > std::numeric_limits<T>::lowest()
                 ? ">= " + std::to_string(min)
                 : std::string("in range")));
    }
    return value;
}

} // namespace bop

#endif // BOP_HARNESS_OPTIONS_HH
