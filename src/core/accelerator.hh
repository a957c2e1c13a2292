/**
 * @file
 * Public facade of the MOUSE library.
 *
 * An Accelerator bundles one device configuration (Modern STT /
 * Projected STT / Projected SHE) with a tile grid, instruction
 * memory, controller, and energy model.  The execution modes the
 * paper evaluates — {functional, trace} x {continuous, harvested},
 * plus scripted-outage fault injection — are selected declaratively
 * by a RunRequest given to execute(), the single entry point.
 *
 * A typical downstream user writes a kernel with KernelBuilder (or
 * maps an SVM/BNN with ml/mapping.hh), loads it, and reads stats and
 * tile contents back.  See examples/quickstart.cpp and
 * docs/EXPERIMENTS_API.md.
 */

#ifndef MOUSE_CORE_ACCELERATOR_HH
#define MOUSE_CORE_ACCELERATOR_HH

#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "compile/builder.hh"
#include "controller/controller.hh"
#include "core/run_api.hh"
#include "sim/simulator.hh"

namespace mouse
{

namespace obs
{
class MetricsHub;
} // namespace obs

/**
 * Ticket identifying a request given to Accelerator::submit().
 * Redeem it with poll() (non-blocking) or wait() (runs the queue
 * until the request completes).
 */
struct RequestHandle
{
    std::uint64_t id = 0;
};

/** Top-level configuration of a MOUSE accelerator instance. */
struct MouseConfig
{
    TechConfig tech = TechConfig::ModernStt;
    ArrayConfig array{};
    PeripheralParams peripheral{};
    /** Gate noise margin (Section V robustness knob). */
    double gateMargin = kDefaultGateMargin;
};

/**
 * A program loaded for one engine configuration: the Program (kept
 * for the MCU baseline, which replays it as an op stream) and its
 * decoded, resolved instruction image.  Immutable once built, so one
 * LoadedProgram serves every Accelerator built from the same
 * MouseConfig (Accelerator::loadImage); the serving layer builds one
 * per model.
 */
class LoadedProgram
{
  public:
    /** Encode, decode and resolve @p prog for engines built from
     *  @p cfg; @p lib must be solved for cfg's tech and margin. */
    LoadedProgram(const MouseConfig &cfg, const GateLibrary &lib,
                  std::shared_ptr<const Program> prog);

    const Program &program() const { return *program_; }
    const std::shared_ptr<const ProgramImage> &
    image() const
    {
        return image_;
    }

    /** True iff an engine built from @p cfg may load this image. */
    bool
    fits(const MouseConfig &cfg) const
    {
        return cfg.tech == tech_ && cfg.gateMargin == gateMargin_ &&
               cfg.array == image_->config();
    }

  private:
    TechConfig tech_;
    double gateMargin_;
    std::shared_ptr<const Program> program_;
    std::shared_ptr<const ProgramImage> image_;
};

/** One configured MOUSE accelerator. */
class Accelerator
{
  public:
    explicit Accelerator(const MouseConfig &cfg);

    const MouseConfig &config() const { return cfg_; }
    const DeviceConfig &device() const { return lib_->config(); }
    const GateLibrary &gateLibrary() const { return *lib_; }
    const EnergyModel &energyModel() const { return *energy_; }

    TileGrid &grid() { return *grid_; }
    const TileGrid &grid() const { return *grid_; }
    Controller &controller() { return *controller_; }
    const Controller &controller() const { return *controller_; }

    /** Write a program into the instruction tiles and reset the PC
     *  (the pre-deployment step of Section IV-B).  Builds a fresh
     *  LoadedProgram; loadImage() adopts a prebuilt one. */
    void loadProgram(const Program &prog);

    /** loadProgram() with a prebuilt image: nothing is copied or
     *  re-encoded.  @pre image->fits(config()). */
    void loadImage(std::shared_ptr<const LoadedProgram> image);

    /**
     * Run one simulation described by @p req.
     *
     * Functional fidelity executes the loaded program on the
     * bit-exact machine; Trace fidelity requires req.trace.  The
     * result carries the RunStats plus wall-clock and metadata.
     *
     * Malformed requests (validateRunRequest) are rejected up
     * front: the result carries the RunError and all-zero stats,
     * and nothing is simulated.
     */
    RunResult execute(const RunRequest &req);

    // -- Asynchronous request API (result schema v4) ----------------
    //
    // submit() admits a request into a FIFO queue and returns a
    // ticket; the run happens later, on whichever thread redeems
    // tickets.  The Accelerator stays single-threaded — poll() and
    // wait() *drive* the queue cooperatively (each poll() advances
    // it by at most one run; wait() advances it until the named
    // request is done), so async semantics cost no locks and stay
    // deterministic: requests run exactly in submission order.
    // For real concurrency across a pool of accelerators, use
    // serve::InferenceService (docs/SERVING.md).

    /**
     * Queue @p req for execution; returns immediately.
     *
     * The request is copied, but its trace/schedule observers are
     * borrowed: their referents must stay alive until the result
     * has been returned by poll()/wait().  Malformed requests are
     * accepted here and rejected with their typed RunError when
     * they run, exactly like execute().
     */
    RequestHandle submit(RunRequest req);

    /**
     * Advance the queue by at most one run, then return @p h's
     * result if it is now complete (at most once; the result moves
     * out).  nullopt while the request is still queued.
     */
    std::optional<RunResult> poll(RequestHandle h);

    /**
     * Run queued requests (in order) until @p h completes; returns
     * its result.  @p h must name an outstanding submit() ticket.
     */
    RunResult wait(RequestHandle h);

    /** Requests admitted but not yet run. */
    std::size_t pendingRequests() const { return pending_.size(); }

    /**
     * Attach a live-metrics hub (docs/OBSERVABILITY.md): submit()
     * and the queue driver publish admission/completion/latency into
     * it.  Observational only — results, stats and traces are
     * byte-identical with or without a hub.  Null detaches.  The hub
     * must outlive the accelerator (or be detached first).
     */
    void setMetrics(obs::MetricsHub *hub) { metrics_ = hub; }

  private:
    /** One admitted-but-not-run request. */
    struct PendingRun
    {
        std::uint64_t id = 0;
        RunRequest req;
        /** Queue length at admission (serve metadata). */
        unsigned queueDepth = 0;
        std::chrono::steady_clock::time_point submitted;
    };

    /** Run the front of the queue and file its result. */
    void runOnePending();

    MouseConfig cfg_;
    /** The loaded program: the MCU baseline replays it as an op
     *  stream (Functional fidelity has no trace to derive one
     *  from). */
    std::shared_ptr<const LoadedProgram> loaded_;
    std::unique_ptr<GateLibrary> lib_;
    std::unique_ptr<EnergyModel> energy_;
    std::unique_ptr<TileGrid> grid_;
    std::unique_ptr<InstructionMemory> imem_;
    std::unique_ptr<Controller> controller_;
    std::deque<PendingRun> pending_;
    std::map<std::uint64_t, RunResult> completed_;
    std::uint64_t nextHandle_ = 1;
    obs::MetricsHub *metrics_ = nullptr;
};

} // namespace mouse

#endif // MOUSE_CORE_ACCELERATOR_HH
