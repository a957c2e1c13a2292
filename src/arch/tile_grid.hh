/**
 * @file
 * The MOUSE tile grid: data tiles, the broadcast column-activation
 * latch, the 128 B transfer buffer, and the instruction store.
 *
 * Volatility model (paper Section IV-A):
 *  - Tile contents are MTJs: non-volatile, survive power loss.
 *  - The column-activation latches are peripheral CMOS: *volatile*,
 *    cleared by an outage; the controller re-issues the last
 *    Activate Columns instruction(s) on restart.
 *  - The 128 B row buffer is itself a small MRAM row (the paper
 *    allots it alongside the non-volatile PC registers); modelling
 *    it volatile would break the idempotent-replay argument for
 *    READ/WRITE pairs, so it persists.
 */

#ifndef MOUSE_ARCH_TILE_GRID_HH
#define MOUSE_ARCH_TILE_GRID_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "arch/tile.hh"
#include "isa/instruction.hh"
#include "obs/stat_registry.hh"

namespace mouse
{

/** Geometry of the accelerator's memory arrays. */
struct ArrayConfig
{
    unsigned tileRows = 1024;
    unsigned tileCols = 1024;
    unsigned numDataTiles = 4;
    unsigned numInstructionTiles = 1;

    bool operator==(const ArrayConfig &other) const = default;

    /** Bits stored by one tile. */
    std::size_t
    tileBits() const
    {
        return static_cast<std::size_t>(tileRows) * tileCols;
    }

    /** Instruction capacity of the instruction tiles (64 b each). */
    std::size_t
    instructionCapacity() const
    {
        return numInstructionTiles * tileBits() / 64;
    }
};

/**
 * One instruction as the grid executes it: the decoded wire word
 * plus what executing it needs from the gate library and the
 * geometry, worked out once by TileGrid::resolve().
 */
struct GridOp
{
    /** Gate opcodes: the resolved gate (arity 0 otherwise). */
    ResolvedGate gate;
    Instruction inst;
    /** TileGrid::touchedUnits() of inst; 16 bits keep a GridOp
     *  within 64 bytes. */
    std::uint16_t touched = 0;
};

/** Whether @p op drives every active column of its tiles (gates and
 *  presets) rather than a fixed column count. */
inline bool
drivesActiveColumns(Opcode op)
{
    return op >= Opcode::kPreset0 && op <= Opcode::kGateMin3;
}

/**
 * An immutable program image: the 64-bit words of the instruction
 * tiles, each decoded and resolved once against one geometry and
 * gate library.  Every engine with the same geometry and an
 * identically solved library can share one image
 * (InstructionMemory::load(std::shared_ptr<const ProgramImage>)).
 * Loading checks every instruction (tile, row and column bounds,
 * the gate parity rule, feasibility and span), so a malformed
 * program fails at load, with the message execution used to give.
 */
class ProgramImage
{
  public:
    /** @pre @p words fit in the instruction tiles of @p cfg. */
    ProgramImage(const ArrayConfig &cfg, const GateLibrary &lib,
                 std::vector<std::uint64_t> words);
    ProgramImage(const ProgramImage &) = delete;
    ProgramImage &operator=(const ProgramImage &) = delete;

    /** The geometry the image was resolved for. */
    const ArrayConfig &config() const { return cfg_; }

    std::size_t size() const { return words_.size(); }

    /** The encoded word at @p addr, as stored in the tiles. */
    std::uint64_t word(std::size_t addr) const { return words_[addr]; }

    /** The decoded and resolved instruction at @p addr. */
    const GridOp &op(std::size_t addr) const { return ops_[addr]; }

  private:
    ArrayConfig cfg_;
    std::vector<std::uint64_t> words_;
    std::vector<GridOp> ops_;
    /** The gate ops' operating tables, one per (gate, span) in use
     *  (span 0 for every span when wires are ideal); map nodes keep
     *  the ops' pointers stable. */
    std::map<std::pair<GateType, unsigned>, GateOpTable> tables_;
};

/**
 * The instruction store mapped onto the instruction tiles.  The bits
 * live in MRAM exactly like data, but are written once before
 * deployment, so the store holds a program image: the packed words
 * and their decoded, resolved form.
 */
class InstructionMemory
{
  public:
    /** @param lib Library gate instructions are resolved against;
     *         must outlive the memory and match the grid's. */
    InstructionMemory(const ArrayConfig &cfg, const GateLibrary &lib)
        : cfg_(cfg), lib_(lib)
    {}

    /** Decode, resolve and load a program image.  @pre fits in the
     *  instruction tiles. */
    void load(std::vector<std::uint64_t> words);

    /** Load a prebuilt image.  @pre built for this geometry with an
     *  identically solved library. */
    void load(std::shared_ptr<const ProgramImage> image);

    std::size_t size() const { return image_ ? image_->size() : 0; }

    /** Fetch one 64-bit instruction word. */
    std::uint64_t
    fetch(std::size_t addr) const
    {
        mouse_assert(addr < size(), "instruction fetch OOB");
        return image_->word(addr);
    }

    /** The decoded and resolved form of the word at @p addr. */
    const GridOp &
    op(std::size_t addr) const
    {
        mouse_assert(addr < size(), "instruction fetch OOB");
        return image_->op(addr);
    }

  private:
    ArrayConfig cfg_;
    const GateLibrary &lib_;
    std::shared_ptr<const ProgramImage> image_;
};

/** Result of executing one instruction on the grid. */
struct ExecOutcome
{
    /** Device (array) energy: gate pulses, presets, row transfers. */
    Joules deviceEnergy = 0.0;
    /** Active columns the instruction operated across. */
    unsigned activeColumns = 0;
    /** Output MTJs that switched (gate ops only). */
    unsigned switched = 0;
};

/** The full set of data tiles plus shared peripherals. */
class TileGrid
{
  public:
    TileGrid(const ArrayConfig &cfg, const GateLibrary &lib);

    const ArrayConfig &config() const { return cfg_; }

    /** Access a data tile, allocating it on first touch. */
    Tile &tile(TileAddr addr);
    const Tile &tile(TileAddr addr) const;

    /** True once @p addr has been touched (const tile() requires
     *  it; state-capture code checks before snapshotting). */
    bool
    tileAllocated(TileAddr addr) const
    {
        return addr < tiles_.size() && tiles_[addr] != nullptr;
    }

    const ColumnSet &activeColumns() const { return active_; }

    /**
     * Execute one non-HALT instruction.
     *
     * @param inst Decoded instruction.
     * @param cycle_fraction Fraction of the cycle that elapses before
     *        an interrupt; 1.0 for uninterrupted execution.
     */
    ExecOutcome execute(const Instruction &inst,
                        double cycle_fraction = 1.0);

    /** Execute one resolved non-HALT instruction; execute(inst) is
     *  resolve() followed by this. */
    ExecOutcome execute(const GridOp &op, double cycle_fraction = 1.0);

    /**
     * Decode-time work for @p inst on geometry @p cfg: check its
     * tile, row and column operands and resolve a gate against
     * @p lib.  A span-dependent gate table goes to @p span_table
     * (see Tile::resolveGate).
     */
    static GridOp resolve(const ArrayConfig &cfg, const GateLibrary &lib,
                          const Instruction &inst,
                          GateOpTable &span_table);

    /** GridOp::touched of @p inst on geometry @p cfg: the columns it
     *  drives, or for gates and presets the tiles it drives, each
     *  across every active column. */
    static std::uint16_t touchedUnits(const ArrayConfig &cfg,
                                      const Instruction &inst);

    /**
     * Model a power outage: peripheral state (the column latches) is
     * lost; MTJ contents and the MRAM row buffer persist.  The
     * controller's non-volatile Activate Columns journal is what
     * rebuilds the latch on restart.
     */
    void powerLoss();

    /** Direct row-buffer access (sensor/transmitter interface). */
    std::vector<Bit> &rowBuffer() { return buffer_; }
    const std::vector<Bit> &rowBuffer() const { return buffer_; }

    /**
     * Register per-tile telemetry counters ("tile.<id>.ops" — array
     * operations issued, including interrupted attempts and restart
     * replays — and "tile.<id>.switched" — output MTJs that flipped)
     * with @p reg, which must outlive the attachment.  Pass nullptr
     * to detach.
     */
    void attachStats(obs::StatRegistry *reg);

  private:
    void applyActivation(const Instruction &inst);

    /** Count one op (and @p switched MTJ flips) against a tile. */
    void
    countOp(TileAddr t, unsigned switched)
    {
        if (!stOps_.empty()) {
            stOps_[t]->increment();
            *stSwitched_[t] += switched;
        }
    }

    ArrayConfig cfg_;
    const GateLibrary &lib_;
    /** Share of the cycle a write pulse occupies. */
    double writePulseFraction_;
    std::vector<std::unique_ptr<Tile>> tiles_;
    ColumnSet active_;
    std::vector<Bit> buffer_;
    /** Telemetry counters, indexed by tile (empty when detached). */
    std::vector<obs::Counter *> stOps_;
    std::vector<obs::Counter *> stSwitched_;
};

} // namespace mouse

#endif // MOUSE_ARCH_TILE_GRID_HH
