/**
 * @file
 * The MOUSE memory controller (paper Sections IV-B, V-B, VI).
 *
 * The controller is the single "thread" of the machine.  Per cycle it
 * performs the classic-pipeline subset the paper describes: fetch the
 * instruction at the valid PC from the instruction tiles, decode it,
 * broadcast it to the data tiles, wait the worst-case completion
 * time, then commit by writing PC+1 into the invalid PC register and
 * flipping the parity bit.
 *
 * For intermittent-correctness testing, one instruction is divided
 * into the micro-steps of Figure 7, and execution can be cut at any
 * of them (plus a fractional position inside the array cycle).  The
 * restart path re-reads the valid PC and replays the checkpointed
 * Activate Columns journal.
 */

#ifndef MOUSE_CONTROLLER_CONTROLLER_HH
#define MOUSE_CONTROLLER_CONTROLLER_HH

#include <cstdint>

#include "arch/tile_grid.hh"
#include "controller/nv_register.hh"
#include "energy/energy_model.hh"

namespace mouse
{

namespace obs
{
class Counter;
class StatRegistry;
} // namespace obs

/** Interruptible phases of one instruction (Figure 7). */
enum class MicroStep
{
    kFetch,    ///< Reading/decoding the instruction word.
    kExecute,  ///< Array cycle in flight (fraction selects where).
    kWritePc,  ///< Updating the invalid PC register.
    kCommit,   ///< Just before the parity-bit flip.
};

/** Outcome of one completed controller step. */
struct StepResult
{
    /** True when the fetched instruction was HALT. */
    bool halted = false;
    /** The instruction performed (undefined when halted). */
    Instruction inst{};
    /** Total energy of the step (fetch + array + peripherals +
     *  backup). */
    Joules energy = 0.0;
    /** Backup portion (PC/parity/ACT-register NV writes). */
    Joules backupEnergy = 0.0;
};

/** Outcome of the restart protocol. */
struct RestartResult
{
    Joules restoreEnergy = 0.0;
    Cycle restoreCycles = 0;
};

/**
 * Checkpointed Activate Columns journal: the sequence of activation
 * instructions (one clearing entry plus up to depth-1 additive ones)
 * that produced the current latch state.  Lives in a duplicated NV
 * register, committed with the same parity discipline as the PC.
 */
struct ActJournal
{
    /** Max consecutive additive activations the register can hold. */
    static constexpr std::size_t kDepth = 4;

    std::array<Instruction, kDepth> entries{};
    std::uint8_t count = 0;
};

/** The MOUSE memory controller. */
class Controller
{
  public:
    Controller(TileGrid &grid, InstructionMemory &imem,
               const EnergyModel &energy);

    /** Address of the next instruction to perform (valid PC copy). */
    std::size_t pc() const { return pcReg_.read(); }

    /** The energy model pricing this controller's operations. */
    const EnergyModel &energyModel() const { return energy_; }

    /** True once a HALT has been fetched and committed. */
    bool halted() const { return halted_; }

    /** Reset PC and halt state for a fresh program run.  (Deployment
     *  writes the initial PC; not part of the intermittent path.) */
    void reset();

    /**
     * Perform one full instruction: fetch, execute, write PC,
     * commit.
     */
    StepResult step();

    /** Decode the instruction at the valid PC without executing it
     *  (the fetch itself has no architectural side effects). */
    Instruction
    peekInstruction() const
    {
        return imem_.op(pcReg_.read()).inst;
    }

    /** Columns an instruction would drive, for energy estimation. */
    unsigned touchedColumns(const Instruction &inst) const;

    /**
     * Perform one instruction but lose power at @p at.
     *
     * @param at Micro-step at which the supply dies.
     * @param fraction For kExecute, the fraction of the array cycle
     *        that elapsed before the cut.
     * @return Energy consumed before the cut (all of it is at risk
     *         of being Dead energy).
     */
    Joules stepInterrupted(MicroStep at, double fraction = 0.5);

    /** Propagate an outage: volatile peripheral state is lost. */
    void powerLoss();

    /**
     * Restart after an outage: re-read the valid PC and re-issue the
     * checkpointed Activate Columns journal into the (volatile)
     * column latches.
     */
    RestartResult restart();

    /**
     * Force the NV PC back to @p pc.  Not part of MOUSE's protocol
     * (its PC checkpoints every cycle): this models the coarser
     * checkpoint disciplines of baseline systems — a SONIC-style
     * window restarts at its last checkpoint boundary and re-executes
     * the window — for the fault-injection engine (src/inject).
     */
    void rollbackPc(std::size_t pc);

    /**
     * Register this controller's counters ("controller.steps",
     * "controller.interrupted", "controller.restarts",
     * "controller.restore_cycles") with @p reg, which must outlive
     * the attachment.  Pass nullptr to detach.
     */
    void attachStats(obs::StatRegistry *reg);

  private:
    /** Fetch the instruction at the valid PC, charging the fetch to
     *  @p energy; the image holds it decoded and resolved. */
    const GridOp &
    fetch(Joules &energy) const
    {
        energy += fetchEnergy_;
        return imem_.op(pcReg_.read());
    }

    /** touchedColumns() of @p inst from its TileGrid::touchedUnits. */
    unsigned
    touched(const Instruction &inst, unsigned units) const
    {
        return drivesActiveColumns(inst.op)
                   ? grid_.activeColumns().count() * units
                   : units;
    }

    unsigned
    touched(const GridOp &op) const
    {
        return touched(op.inst, op.touched);
    }

    /** Commit phase: PC update + parity flip + backup accounting. */
    void commitPhase(const Instruction &inst, StepResult &result);

    /** Journal value after committing @p inst on top of the current
     *  checkpoint. */
    ActJournal journalAfter(const Instruction &inst) const;

    TileGrid &grid_;
    InstructionMemory &imem_;
    const EnergyModel &energy_;
    // The energy model's per-step constants.
    const Joules fetchEnergy_;
    const Joules backupEnergyPerCycle_;
    const Joules actRegisterBackupEnergy_;
    DuplexNvRegister<std::uint32_t> pcReg_;
    DuplexNvRegister<ActJournal> actReg_;
    bool halted_ = false;
    // Optional telemetry counters (null when no registry attached).
    obs::Counter *stSteps_ = nullptr;
    obs::Counter *stInterrupted_ = nullptr;
    obs::Counter *stRestarts_ = nullptr;
    obs::Counter *stRestoreCycles_ = nullptr;
};

} // namespace mouse

#endif // MOUSE_CONTROLLER_CONTROLLER_HH
