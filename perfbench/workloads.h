/**
 * @file
 * The benchmark's workloads. Each is shaped like one paichar command
 * (characterize, schedule, serve) and drives the libraries through
 * the same public calls the command makes. WORKLOADS.md gives the
 * reason for each, the layers it loads and bypasses, and its seeds.
 *
 * A workload is a batch job: set-up builds its inputs from the seed,
 * and each pass is one complete run of the command's library calls
 * over those inputs. There is no open-loop generator; a pass starts
 * when the previous one has ended.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Context
{
    uint64_t seed = 0;
    /** Directory for generated input files (created by the caller). */
    std::string work_dir;
};

/** How a pass runs. Only schedule_fifo_recorded tells them apart. */
enum class PassMode
{
    /** The workload as specified. */
    Normal,
    /** The same stream with every obs sink off (overhead baseline). */
    SinksOff,
};

/** Outcome of checking one pass. */
struct Verdict
{
    /** Set when an output check failed. */
    std::optional<std::string> error;
    /** Digest of every simulated result of the pass. */
    uint64_t digest = 0;
    /** Headline simulated numbers, for parent/child comparison. */
    std::string headline;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the inputs from the seed: files under the work directory
     * and any in-memory state a pass needs. May run several times.
     * Throws on failure.
     */
    virtual void setup(const Context &ctx) = 0;

    /**
     * Independent inputs set-up builds; input i is generated from
     * seed * inputs() + i. A workload whose cost depends strongly on
     * its input has several, and a run rotates its passes over all of
     * them, so one seed's figures do not rest on one draw.
     */
    virtual int inputs() const { return 1; }

    /**
     * Make inputs an earlier setup() wrote usable in this process
     * (a fresh process runs this instead of setup()). Not timed.
     */
    virtual void attach(const Context &ctx) = 0;

    /**
     * A check too costly for every pass, run once per run after
     * set-up and not timed. Returns the error when it fails.
     */
    virtual std::optional<std::string> selfCheck() { return std::nullopt; }

    /** Items (jobs or requests) one pass completes. */
    virtual int64_t itemsPerPass() const = 0;

    /**
     * One pass over input @p input. Keeps its outputs for verify().
     * Throws on failure.
     */
    virtual void pass(PassMode mode, int input) = 0;

    /** Check the last pass's outputs and release them. */
    virtual Verdict verify() = 0;

    /**
     * Per-layer values the benchmark measures itself for the last
     * pass (wrapper call counts, rendered sizes), by metric name.
     */
    virtual std::map<std::string, double> passExtras() const
    {
        return {};
    }

    /** True when PassMode::SinksOff differs from Normal. */
    virtual bool hasSinks() const { return false; }
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The named workload, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
