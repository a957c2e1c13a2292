#include "tile_grid.hh"

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace mouse
{

static_assert(sizeof(GridOp) <= 64, "a resolved op outgrew a cache line");

ProgramImage::ProgramImage(const ArrayConfig &cfg, const GateLibrary &lib,
                           std::vector<std::uint64_t> words)
    : cfg_(cfg), words_(std::move(words))
{
    if (words_.size() > cfg.instructionCapacity()) {
        mouse_fatal("program of %zu instructions exceeds the %zu-entry "
                    "instruction tile capacity",
                    words_.size(), cfg.instructionCapacity());
    }
    ops_.reserve(words_.size());
    GateOpTable span_table;
    for (const std::uint64_t w : words_) {
        // Execute exactly what the tiles hold: the decoded word.
        GridOp &op = ops_.emplace_back(TileGrid::resolve(
            cfg, lib, Instruction::decode(w), span_table));
        if (op.gate.table != nullptr) {
            // Point at the image's own copy, not into the library it
            // was resolved with.
            const bool at_span = op.gate.table == &span_table;
            const std::pair<GateType, unsigned> key(
                op.gate.gate, at_span ? op.gate.span : 0u);
            op.gate.table =
                &tables_.try_emplace(key, *op.gate.table).first->second;
        }
    }
}

void
InstructionMemory::load(std::vector<std::uint64_t> words)
{
    load(std::make_shared<const ProgramImage>(cfg_, lib_,
                                              std::move(words)));
}

void
InstructionMemory::load(std::shared_ptr<const ProgramImage> image)
{
    mouse_assert(image != nullptr && image->config() == cfg_,
                 "program image built for another geometry");
    image_ = std::move(image);
}

TileGrid::TileGrid(const ArrayConfig &cfg, const GateLibrary &lib)
    : cfg_(cfg), lib_(lib),
      writePulseFraction_(lib.writeOp().pulseTime /
                          lib.config().cycleTime),
      tiles_(cfg.numDataTiles), active_(cfg.tileCols),
      buffer_(cfg.tileCols, 0)
{
}

void
TileGrid::attachStats(obs::StatRegistry *reg)
{
    stOps_.clear();
    stSwitched_.clear();
    if (reg == nullptr) {
        return;
    }
    stOps_.reserve(cfg_.numDataTiles);
    stSwitched_.reserve(cfg_.numDataTiles);
    for (TileAddr t = 0; t < cfg_.numDataTiles; ++t) {
        const std::string id = std::to_string(t);
        stOps_.push_back(&reg->counter(
            "tile." + id + ".ops",
            "array operations issued (incl. attempts/replays)"));
        stSwitched_.push_back(&reg->counter(
            "tile." + id + ".switched",
            "output MTJs that flipped"));
    }
}

Tile &
TileGrid::tile(TileAddr addr)
{
    mouse_assert(addr < tiles_.size(), "tile address OOB");
    if (!tiles_[addr]) {
        tiles_[addr] =
            std::make_unique<Tile>(cfg_.tileRows, cfg_.tileCols);
    }
    return *tiles_[addr];
}

const Tile &
TileGrid::tile(TileAddr addr) const
{
    mouse_assert(addr < tiles_.size(), "tile address OOB");
    mouse_assert(tiles_[addr] != nullptr, "tile never touched");
    return *tiles_[addr];
}

GridOp
TileGrid::resolve(const ArrayConfig &cfg, const GateLibrary &lib,
                  const Instruction &inst, GateOpTable &span_table)
{
    GridOp op;
    op.inst = inst;
    // Gates and presets may broadcast to every data tile.
    auto checkTile = [&](bool broadcast_ok) {
        mouse_assert(inst.tile < cfg.numDataTiles ||
                         (broadcast_ok && inst.tile == kBroadcastTile),
                     "tile address OOB");
    };
    switch (inst.op) {
      case Opcode::kHalt:
        break;
      case Opcode::kActivateList:
        for (int i = 0; i < inst.numCols; ++i) {
            mouse_assert(inst.cols[static_cast<std::size_t>(i)] <
                             cfg.tileCols,
                         "activated column OOB");
        }
        break;
      case Opcode::kActivateRange:
        mouse_assert(inst.colHi < cfg.tileCols, "activated column OOB");
        mouse_assert(inst.colLo <= inst.colHi, "bad activation range");
        break;
      case Opcode::kReadRow:
      case Opcode::kWriteRow:
      case Opcode::kWriteRowShifted:
        checkTile(false);
        mouse_assert(inst.outRow < cfg.tileRows,
                     inst.op == Opcode::kReadRow ? "read row OOB"
                                                 : "write row OOB");
        break;
      case Opcode::kPreset0:
      case Opcode::kPreset1:
        checkTile(true);
        mouse_assert(inst.outRow < cfg.tileRows, "preset row OOB");
        break;
      default:
        mouse_assert(isGateOpcode(inst.op), "unhandled opcode");
        checkTile(true);
        op.gate = Tile::resolveGate(lib, gateFromOpcode(inst.op),
                                    inst.rows, inst.outRow, cfg.tileRows,
                                    span_table);
        break;
    }
    op.touched = touchedUnits(cfg, inst);
    return op;
}

std::uint16_t
TileGrid::touchedUnits(const ArrayConfig &cfg, const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::kHalt:
        return 0;
      case Opcode::kActivateList:
        return inst.numCols;
      case Opcode::kActivateRange:
        return static_cast<std::uint16_t>(inst.colHi - inst.colLo + 1);
      case Opcode::kReadRow:
      case Opcode::kWriteRow:
      case Opcode::kWriteRowShifted:
        return static_cast<std::uint16_t>(cfg.tileCols);
      default:
        return static_cast<std::uint16_t>(
            inst.tile == kBroadcastTile ? cfg.numDataTiles : 1);
    }
}

void
TileGrid::applyActivation(const Instruction &inst)
{
    if (inst.clearActivation) {
        active_.clear();
    }
    if (inst.op == Opcode::kActivateList) {
        for (int i = 0; i < inst.numCols; ++i) {
            active_.add(inst.cols[static_cast<std::size_t>(i)]);
        }
    } else {
        active_.addRange(inst.colLo, inst.colHi);
    }
}

ExecOutcome
TileGrid::execute(const Instruction &inst, double cycle_fraction)
{
    GateOpTable span_table;
    return execute(resolve(cfg_, lib_, inst, span_table), cycle_fraction);
}

ExecOutcome
TileGrid::execute(const GridOp &op, double cycle_fraction)
{
    const Instruction &inst = op.inst;
    ExecOutcome out;
    out.activeColumns = active_.count();
    switch (inst.op) {
      case Opcode::kHalt:
        mouse_panic("HALT reached TileGrid::execute");
      case Opcode::kActivateList:
      case Opcode::kActivateRange:
        // The latch update is peripheral-only.  An activation
        // interrupted mid-flight leaves an arbitrary partial latch
        // state, but the latch is volatile and rebuilt on restart, so
        // no persistent state is touched; model it as applying only
        // when the cycle completes.
        if (cycle_fraction >= 1.0) {
            applyActivation(inst);
        }
        out.activeColumns = active_.count();
        break;
      case Opcode::kReadRow: {
        countOp(inst.tile, 0);
        if (cycle_fraction >= 1.0) {
            out.deviceEnergy +=
                tile(inst.tile).readRow(lib_, inst.outRow, buffer_);
        } else {
            // Sense current was flowing but the latched result is
            // lost; charge a proportional fraction of the energy.
            out.deviceEnergy += lib_.readOp().energy * cfg_.tileCols *
                                cycle_fraction;
        }
        break;
      }
      case Opcode::kWriteRow:
        countOp(inst.tile, 0);
        out.deviceEnergy += tile(inst.tile).writeRow(
            lib_, inst.outRow, buffer_, cycle_fraction);
        break;
      case Opcode::kWriteRowShifted: {
        // Barrel-shifted write: destination column c receives buffer
        // column (c + shift) mod width — the cross-column transport
        // behind gather/reduction phases.
        const unsigned width = cfg_.tileCols;
        std::vector<Bit> rotated(width);
        for (unsigned c = 0; c < width; ++c) {
            rotated[c] = buffer_[(c + inst.colLo) % width];
        }
        countOp(inst.tile, 0);
        out.deviceEnergy += tile(inst.tile).writeRow(
            lib_, inst.outRow, rotated, cycle_fraction);
        break;
      }
      case Opcode::kPreset0:
      case Opcode::kPreset1: {
        const Bit value = inst.op == Opcode::kPreset1 ? 1 : 0;
        const WriteOp &w = lib_.writeOp();
        if (inst.tile == kBroadcastTile) {
            for (TileAddr t = 0; t < cfg_.numDataTiles; ++t) {
                countOp(t, 0);
                out.deviceEnergy += tile(t).presetRow(
                    w, writePulseFraction_, inst.outRow, value, active_,
                    cycle_fraction);
            }
        } else {
            countOp(inst.tile, 0);
            out.deviceEnergy += tile(inst.tile).presetRow(
                w, writePulseFraction_, inst.outRow, value, active_,
                cycle_fraction);
        }
        break;
      }
      default: {
        if (inst.tile == kBroadcastTile) {
            for (TileAddr t = 0; t < cfg_.numDataTiles; ++t) {
                const GateExecResult r = tile(t).executeGate(
                    lib_, op.gate, active_, cycle_fraction);
                out.deviceEnergy += r.deviceEnergy;
                out.switched += r.switched;
                countOp(t, r.switched);
            }
        } else {
            const GateExecResult r = tile(inst.tile).executeGate(
                lib_, op.gate, active_, cycle_fraction);
            out.deviceEnergy += r.deviceEnergy;
            out.switched = r.switched;
            countOp(inst.tile, r.switched);
        }
        break;
      }
    }
    return out;
}

void
TileGrid::powerLoss()
{
    // Column latches are volatile peripheral circuitry.
    active_.clear();
}

} // namespace mouse
