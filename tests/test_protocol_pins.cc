/**
 * @file
 * Pins of the intermittent controller protocol on compiled programs.
 *
 * For the demo BNN and SVM serving programs (ProjectedStt, 512x1024)
 * and a compiled multiply-and-sum on Modern STT, an engine runs to a
 * cut instruction, loses power at every micro-step with cycle
 * fractions 0, 0.5 and one ulp either side of the cut instruction's
 * gate and write pulse fractions, restarts, and runs to HALT.  The
 * energy of the cut attempt, of the restore and of every completed
 * step (as hex floats), the restore cycles, the final PC and a tile
 * digest must match values recorded from the controller that decoded
 * and resolved every instruction at each step.
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/accelerator.hh"
#include "serve/demo.hh"
#include "serve/service.hh"

namespace mouse
{
namespace
{

/** Recorded outcome of one cut. */
struct CasePin
{
    const char *program;
    std::size_t cutPc;
    int at;
    /** Index into the case's fraction list (see fractionsFor). */
    int fraction;
    Joules cutEnergy;
    Joules restoreEnergy;
    Cycle restoreCycles;
    /** Sum of every completed step's energy, in step order. */
    Joules runEnergy;
    /** Sum of every completed step's backup energy. */
    Joules runBackup;
    std::size_t finalPc;
    std::uint64_t digest;
};

/** FNV-1a over every allocated data tile's bits. */
std::uint64_t
gridDigest(const TileGrid &grid)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (TileAddr t = 0; t < grid.config().numDataTiles; ++t) {
        if (!grid.tileAllocated(t)) {
            continue;
        }
        for (const Bit b : grid.tile(t).snapshot()) {
            h ^= b;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

/** A program under test: engine config plus the load of program and
 *  data into a fresh engine. */
struct PinProgram
{
    const char *name;
    MouseConfig cfg;
    Program program;
    std::function<void(Accelerator &)> deploy;
};

MouseConfig
servingConfig()
{
    MouseConfig cfg;
    cfg.tech = TechConfig::ProjectedStt;
    cfg.array.tileRows = 512;
    cfg.array.tileCols = 1024;
    cfg.array.numDataTiles = 1;
    cfg.array.numInstructionTiles = 4096;
    return cfg;
}

/** The demo model @p svm (or BNN) with one full random batch. */
PinProgram
servedProgram(bool svm)
{
    serve::ServiceConfig sc;
    sc.engine = servingConfig();
    auto svc = std::make_shared<serve::InferenceService>(sc);
    const serve::ModelId id = svm ? svc->addModel(serve::demoSvm(2))
                                  : svc->addModel(serve::demoBnn(1));
    const serve::PackedModel &m = svc->model(id);
    Rng rng(svm ? 29 : 23);
    auto in = std::make_shared<std::vector<serve::Input>>();
    for (unsigned s = 0; s < m.slots(); ++s) {
        in->push_back(serve::randomInput(rng, m));
    }
    PinProgram p{svm ? "svm" : "bnn", sc.engine, m.program(), {}};
    p.deploy = [svc, id, in](Accelerator &acc) {
        const serve::PackedModel &pm = svc->model(id);
        pm.deployWeights(acc.grid());
        for (unsigned s = 0; s < pm.slots(); ++s) {
            pm.packInput(acc.grid(), s, (*in)[s]);
        }
    };
    return p;
}

/** A 4x4 multiply summed over 4 columns on Modern STT: gates of one,
 *  two and three inputs, presets, and row transfers. */
PinProgram
modernProgram()
{
    MouseConfig cfg;
    cfg.tech = TechConfig::ModernStt;
    cfg.array.tileRows = 256;
    cfg.array.tileCols = 64;
    cfg.array.numDataTiles = 1;
    cfg.array.numInstructionTiles = 8;
    const GateLibrary lib(makeDeviceConfig(cfg.tech), cfg.gateMargin);
    KernelBuilder kb(lib, cfg.array, 0, 16);
    kb.activate(0, 63);
    const Word a = kb.pinnedWord(0, 4);
    const Word b = kb.pinnedWord(8, 4);
    const Word p = kb.mulUnsigned(a, b);
    kb.crossColumnSum(p, 4);
    PinProgram prog{"modern", cfg, kb.finish(), {}};
    prog.deploy = [](Accelerator &acc) {
        Rng rng(31);
        for (RowAddr r = 0; r < 16; r += 2) {
            for (ColAddr c = 0; c < 64; ++c) {
                acc.grid().tile(0).setBit(
                    r, c, static_cast<Bit>(rng.below(2)));
            }
        }
    };
    return prog;
}

/** Cut points: the first instruction of each opcode present. */
std::vector<std::size_t>
cutsOf(const Program &prog)
{
    std::vector<std::size_t> cuts;
    std::vector<bool> seen(static_cast<std::size_t>(Opcode::kNumOpcodes));
    for (std::size_t pc = 0; pc < prog.size(); ++pc) {
        const auto op =
            static_cast<std::size_t>(prog.instructions[pc].op);
        if (prog.instructions[pc].op != Opcode::kHalt && !seen[op]) {
            seen[op] = true;
            cuts.push_back(pc);
        }
    }
    return cuts;
}

/** Fractions 0, 0.5, then one ulp below/above the gate pulse
 *  fraction (the cut's gate, NAND2 otherwise) and the write pulse
 *  fraction. */
std::vector<double>
fractionsFor(const GateLibrary &lib, const Instruction &inst)
{
    const GateType g = isGateOpcode(inst.op) ? gateFromOpcode(inst.op)
                                             : GateType::kNand2;
    const double cycle = lib.config().cycleTime;
    const double gate = lib.gate(g).pulseTime / cycle;
    const double write = lib.writeOp().pulseTime / cycle;
    return {0.0,
            0.5,
            std::nextafter(gate, 0.0),
            std::nextafter(gate, 1.0),
            std::nextafter(write, 0.0),
            std::nextafter(write, 1.0)};
}

std::string
hex(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** Run one cut case on a fresh engine. */
CasePin
runCase(const PinProgram &p, std::size_t cut, MicroStep at, int fi,
        double fraction)
{
    Accelerator acc(p.cfg);
    acc.loadProgram(p.program);
    p.deploy(acc);
    Controller &c = acc.controller();
    CasePin pin{p.name, cut, static_cast<int>(at), fi, 0.0, 0.0, 0,
                0.0, 0.0, 0, 0};
    for (std::size_t i = 0; i < cut; ++i) {
        const StepResult r = c.step();
        pin.runEnergy += r.energy;
        pin.runBackup += r.backupEnergy;
    }
    pin.cutEnergy = c.stepInterrupted(at, fraction);
    c.powerLoss();
    const RestartResult rr = c.restart();
    pin.restoreEnergy = rr.restoreEnergy;
    pin.restoreCycles = rr.restoreCycles;
    while (!c.halted()) {
        const StepResult r = c.step();
        pin.runEnergy += r.energy;
        pin.runBackup += r.backupEnergy;
    }
    pin.finalPc = c.pc();
    pin.digest = gridDigest(acc.grid());
    return pin;
}

std::string
format(const CasePin &p)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"%s\", %zu, %d, %d, %s, %s, %llu, %s, %s, %zu, "
                  "0x%016llxULL},",
                  p.program, p.cutPc, p.at, p.fraction,
                  hex(p.cutEnergy).c_str(),
                  hex(p.restoreEnergy).c_str(),
                  static_cast<unsigned long long>(p.restoreCycles),
                  hex(p.runEnergy).c_str(), hex(p.runBackup).c_str(),
                  p.finalPc, static_cast<unsigned long long>(p.digest));
    return buf;
}

// Recorded from the controller that decoded every instruction at
// each step.  Columns: program, cut PC, MicroStep, fraction index,
// cut energy, restore energy, restore cycles, run energy, run backup
// energy, final PC, tile digest.
const CasePin kPins[] = {
    {"bnn", 0, 0, 0, 0x0p+0, 0x0p+0, 0, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 0, 1, 0x1.04d4b092c29c7p-48, 0x0p+0, 0, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 1, 0, 0x1.04d4b092c29c7p-47, 0x0p+0, 0, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 1, 1, 0x1.8348e4ed83c3dp-41, 0x0p+0, 0, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 1, 2, 0x1.26ffe3e2c9c7ep-43, 0x0p+0, 0, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 1, 3, 0x1.26ffe3e2c9c7fp-43, 0x0p+0, 0, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 1, 4, 0x1.26ffe3e2c9c7ep-43, 0x0p+0, 0, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 1, 5, 0x1.26ffe3e2c9c7fp-43, 0x0p+0, 0, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 2, 0, 0x1.813f3b8c5e3eap-40, 0x0p+0, 0, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 2, 1, 0x1.81e1d82ceb886p-40, 0x0p+0, 0, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 3, 0, 0x1.9d9e8f8fafc7bp-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 0, 3, 1, 0x1.9d9e8f8fafc7bp-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 0, 0, 0x0p+0, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 0, 1, 0x1.04d4b092c29c7p-48, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 1, 0, 0x1.04d4b092c29c7p-47, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 1, 1, 0x1.e2bae5390c1dp-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 1, 2, 0x1.45f66f3ea374p-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 1, 3, 0x1.45f66f3ea3741p-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 1, 4, 0x1.45f66f3ea374p-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 1, 5, 0x1.45f66f3ea3741p-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 2, 0, 0x1.512ad727543cep-39, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 2, 1, 0x1.517c25779ae1cp-39, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 3, 0, 0x1.51cd73c7e186ap-39, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 1, 3, 1, 0x1.51cd73c7e186ap-39, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 0, 0, 0x0p+0, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 0, 1, 0x1.04d4b092c29c7p-48, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 1, 0, 0x1.04d4b092c29c7p-47, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 1, 1, 0x1.2288671cbf6bbp-40, 0x1.7f54b989978fap-40, 1, 0x1.8ae1e0accb41ep-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 1, 2, 0x1.0b87e244ad856p-41, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 1, 3, 0x1.0b87e244ad858p-41, 0x1.7f54b989978fap-40, 1, 0x1.8ae1e0accb41ep-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 1, 4, 0x1.0b87e244ad856p-41, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 1, 5, 0x1.0b87e244ad858p-41, 0x1.7f54b989978fap-40, 1, 0x1.8ae1e0accb41ep-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 2, 0, 0x1.e22330325bc86p-40, 0x1.7f54b989978fap-40, 1, 0x1.8ae1e0accb41ep-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 2, 1, 0x1.e2c5ccd2e9122p-40, 0x1.7f54b989978fap-40, 1, 0x1.8ae1e0accb41ep-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 3, 0, 0x1.e3686973765bep-40, 0x1.7f54b989978fap-40, 1, 0x1.8ae1e0accb41ep-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 2, 3, 1, 0x1.e3686973765bep-40, 0x1.7f54b989978fap-40, 1, 0x1.8ae1e0accb41ep-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 0, 0, 0x0p+0, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 0, 1, 0x1.04d4b092c29c7p-48, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 1, 0, 0x1.04d4b092c29c7p-47, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 1, 1, 0x1.e2bae5390c1dp-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 1, 2, 0x1.45f66f3ea374p-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 1, 3, 0x1.45f66f3ea3741p-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 1, 4, 0x1.45f66f3ea374p-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 1, 5, 0x1.45f66f3ea3741p-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 2, 0, 0x1.512ad727543cep-39, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 2, 1, 0x1.517c25779ae1cp-39, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 3, 0, 0x1.51cd73c7e186ap-39, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 3, 3, 1, 0x1.51cd73c7e186ap-39, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 0, 0, 0x0p+0, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 0, 1, 0x1.04d4b092c29c7p-48, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 1, 0, 0x1.04d4b092c29c7p-47, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 1, 1, 0x1.dfdc84143e512p-40, 0x1.7f54b989978fap-40, 1, 0x1.8b8818dc5bf57p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 1, 2, 0x1.43180e19d5a82p-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 1, 3, 0x1.43180e19d5a83p-40, 0x1.7f54b989978fap-40, 1, 0x1.8b8818dc5bf57p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 1, 4, 0x1.43180e19d5a82p-40, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 1, 5, 0x1.43180e19d5a83p-40, 0x1.7f54b989978fap-40, 1, 0x1.8b8818dc5bf57p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 2, 0, 0x1.4fbba694ed56ep-39, 0x1.7f54b989978fap-40, 1, 0x1.8b8818dc5bf57p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 2, 1, 0x1.500cf4e533fbcp-39, 0x1.7f54b989978fap-40, 1, 0x1.8b8818dc5bf57p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 3, 0, 0x1.505e43357aa0ap-39, 0x1.7f54b989978fap-40, 1, 0x1.8b8818dc5bf57p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 4, 3, 1, 0x1.505e43357aa0ap-39, 0x1.7f54b989978fap-40, 1, 0x1.8b8818dc5bf57p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 0, 0, 0x0p+0, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 0, 1, 0x1.04d4b092c29c7p-48, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 1, 0, 0x1.04d4b092c29c7p-47, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 1, 1, 0x1.44651ce7489cdp-40, 0x1.7f54b989978fap-40, 1, 0x1.8adcd5fa48f12p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 1, 2, 0x1.4f414dd9bfe7bp-41, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 1, 3, 0x1.4f414dd9bfe7cp-41, 0x1.7f54b989978fap-40, 1, 0x1.8adcd5fa48f12p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 1, 4, 0x1.4f414dd9bfe7bp-41, 0x1.7f54b989978fap-40, 1, 0x1.8af2bbd78ae4ap-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 1, 5, 0x1.4f414dd9bfe7cp-41, 0x1.7f54b989978fap-40, 1, 0x1.8adcd5fa48f12p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 2, 0, 0x1.01fff2fe727ccp-39, 0x1.7f54b989978fap-40, 1, 0x1.8adcd5fa48f12p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 2, 1, 0x1.0251414eb921ap-39, 0x1.7f54b989978fap-40, 1, 0x1.8adcd5fa48f12p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 3, 0, 0x1.02a28f9effc68p-39, 0x1.7f54b989978fap-40, 1, 0x1.8adcd5fa48f12p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"bnn", 12, 3, 1, 0x1.02a28f9effc68p-39, 0x1.7f54b989978fap-40, 1, 0x1.8adcd5fa48f12p-30, 0x1.bb9541f6bf841p-39, 677, 0x1dcd8072a7ed527cULL},
    {"svm", 0, 0, 0, 0x0p+0, 0x0p+0, 0, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 0, 1, 0x1.04d4b092c29c7p-48, 0x0p+0, 0, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 1, 0, 0x1.04d4b092c29c7p-47, 0x0p+0, 0, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 1, 1, 0x1.8348e4ed83c3dp-41, 0x0p+0, 0, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 1, 2, 0x1.26ffe3e2c9c7ep-43, 0x0p+0, 0, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 1, 3, 0x1.26ffe3e2c9c7fp-43, 0x0p+0, 0, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 1, 4, 0x1.26ffe3e2c9c7ep-43, 0x0p+0, 0, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 1, 5, 0x1.26ffe3e2c9c7fp-43, 0x0p+0, 0, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 2, 0, 0x1.813f3b8c5e3eap-40, 0x0p+0, 0, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 2, 1, 0x1.81e1d82ceb886p-40, 0x0p+0, 0, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 3, 0, 0x1.9d9e8f8fafc7bp-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 0, 3, 1, 0x1.9d9e8f8fafc7bp-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 0, 0, 0x0p+0, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 0, 1, 0x1.04d4b092c29c7p-48, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 1, 0, 0x1.04d4b092c29c7p-47, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 1, 1, 0x1.e2bae5390c1dp-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 1, 2, 0x1.45f66f3ea374p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 1, 3, 0x1.45f66f3ea3741p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 1, 4, 0x1.45f66f3ea374p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 1, 5, 0x1.45f66f3ea3741p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 2, 0, 0x1.512ad727543cep-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 2, 1, 0x1.517c25779ae1cp-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 3, 0, 0x1.51cd73c7e186ap-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 1, 3, 1, 0x1.51cd73c7e186ap-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 0, 0, 0x0p+0, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 0, 1, 0x1.04d4b092c29c7p-48, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 1, 0, 0x1.04d4b092c29c7p-47, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 1, 1, 0x1.3475eb84a409p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d0229327113p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 1, 2, 0x1.2f62eb1476c01p-41, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 1, 3, 0x1.2f62eb1476c01p-41, 0x1.7f54b989978fap-40, 1, 0x1.90d0229327113p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 1, 4, 0x1.2f62eb1476c01p-41, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 1, 5, 0x1.2f62eb1476c01p-41, 0x1.7f54b989978fap-40, 1, 0x1.90d0229327113p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 2, 0, 0x1.f410b49a4065ap-40, 0x1.7f54b989978fap-40, 1, 0x1.90d0229327113p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 2, 1, 0x1.f4b3513acdaf6p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d0229327113p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 3, 0, 0x1.f555eddb5af92p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d0229327113p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 22, 3, 1, 0x1.f555eddb5af92p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d0229327113p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 0, 0, 0x0p+0, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 0, 1, 0x1.04d4b092c29c7p-48, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 1, 0, 0x1.04d4b092c29c7p-47, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 1, 1, 0x1.10ebfb515bd2ep-40, 0x1.7f54b989978fap-40, 1, 0x1.90d0f2826c74ap-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 1, 2, 0x1.d09e155bcca7bp-42, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 1, 3, 0x1.d09e155bcca7cp-42, 0x1.7f54b989978fap-40, 1, 0x1.90d0f2826c74ap-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 1, 4, 0x1.d09e155bcca7bp-42, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 1, 5, 0x1.d09e155bcca7cp-42, 0x1.7f54b989978fap-40, 1, 0x1.90d0f2826c74ap-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 2, 0, 0x1.d086c466f82f9p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d0f2826c74ap-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 2, 1, 0x1.d129610785795p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d0f2826c74ap-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 3, 0, 0x1.d1cbfda812c31p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d0f2826c74ap-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 24, 3, 1, 0x1.d1cbfda812c31p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d0f2826c74ap-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 0, 0, 0x0p+0, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 0, 1, 0x1.04d4b092c29c7p-48, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 1, 0, 0x1.04d4b092c29c7p-47, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 1, 1, 0x1.e2bae5390c1dp-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 1, 2, 0x1.45f66f3ea374p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 1, 3, 0x1.45f66f3ea3741p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 1, 4, 0x1.45f66f3ea374p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 1, 5, 0x1.45f66f3ea3741p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 2, 0, 0x1.512ad727543cep-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 2, 1, 0x1.517c25779ae1cp-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 3, 0, 0x1.51cd73c7e186ap-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 27, 3, 1, 0x1.51cd73c7e186ap-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 0, 0, 0x0p+0, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 0, 1, 0x1.04d4b092c29c7p-48, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 1, 0, 0x1.04d4b092c29c7p-47, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 1, 1, 0x1.9f79ef545f068p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 1, 2, 0x1.02b57959f65d8p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 1, 3, 0x1.02b57959f65d9p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 1, 4, 0x1.02b57959f65d8p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 1, 5, 0x1.02b57959f65d9p-40, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 2, 0, 0x1.2f8a5c34fdb19p-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 2, 1, 0x1.2fdbaa8544567p-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 3, 0, 0x1.302cf8d58afb5p-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"svm", 28, 3, 1, 0x1.302cf8d58afb5p-39, 0x1.7f54b989978fap-40, 1, 0x1.90d182fbba3c2p-26, 0x1.b914f93e93ac5p-35, 11089, 0x4bf9354f97a1a83cULL},
    {"modern", 0, 0, 0, 0x0p+0, 0x0p+0, 0, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 0, 1, 0x1.1cd7a9b3a4428p-42, 0x0p+0, 0, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 1, 0, 0x1.1cd7a9b3a4428p-41, 0x0p+0, 0, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 1, 1, 0x1.b9296b1318df3p-39, 0x0p+0, 0, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 1, 2, 0x1.14f2ec5c120f4p-40, 0x0p+0, 0, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 1, 3, 0x1.14f2ec5c120f5p-40, 0x0p+0, 0, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 1, 4, 0x1.14f2ec5c120f4p-40, 0x0p+0, 0, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 1, 5, 0x1.14f2ec5c120f5p-40, 0x0p+0, 0, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 2, 0, 0x1.958e75dca456ep-38, 0x0p+0, 0, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 2, 1, 0x1.9eaefe826d19p-38, 0x0p+0, 0, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 3, 0, 0x1.969dd164d5c61p-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 0, 3, 1, 0x1.969dd164d5c61p-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 0, 0, 0x0p+0, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 0, 1, 0x1.1cd7a9b3a4428p-42, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 1, 0, 0x1.1cd7a9b3a4428p-41, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 1, 1, 0x1.e0321d4a85905p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 1, 2, 0x1.48da22d7fda47p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 1, 3, 0x1.48da22d7fda48p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 1, 4, 0x1.48da22d7fda47p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 1, 5, 0x1.48da22d7fda48p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 2, 0, 0x1.4c95eececebbcp-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 2, 1, 0x1.51263321b31cdp-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 3, 0, 0x1.55b67774977dep-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 1, 3, 1, 0x1.55b67774977dep-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 0, 0, 0x0p+0, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 0, 1, 0x1.1cd7a9b3a4428p-42, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 1, 0, 0x1.1cd7a9b3a4428p-41, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 1, 1, 0x1.8be44220d8547p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2362699f2f88bp-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 1, 2, 0x1.e9188f5ca0d15p-39, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 1, 3, 0x1.e9188f5ca0d16p-39, 0x1.7a0675d04649ep-38, 1, 0x1.2362699f2f88bp-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 1, 4, 0x1.e9188f5ca0d15p-39, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 1, 5, 0x1.e9188f5ca0d16p-39, 0x1.7a0675d04649ep-38, 1, 0x1.2362699f2f88bp-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 2, 0, 0x1.226f0139f81dep-37, 0x1.7a0675d04649ep-38, 1, 0x1.2362699f2f88bp-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 2, 1, 0x1.26ff458cdc7efp-37, 0x1.7a0675d04649ep-38, 1, 0x1.2362699f2f88bp-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 3, 0, 0x1.2b8f89dfc0ep-37, 0x1.7a0675d04649ep-38, 1, 0x1.2362699f2f88bp-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 10, 3, 1, 0x1.2b8f89dfc0ep-37, 0x1.7a0675d04649ep-38, 1, 0x1.2362699f2f88bp-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 0, 0, 0x0p+0, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 0, 1, 0x1.1cd7a9b3a4428p-42, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 1, 0, 0x1.1cd7a9b3a4428p-41, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 1, 1, 0x1.a8f777b6afe75p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2365a8aa6e3e5p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 1, 2, 0x1.119f7d4427fb8p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 1, 3, 0x1.119f7d4427fb9p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2365a8aa6e3e5p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 1, 4, 0x1.119f7d4427fb8p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 1, 5, 0x1.119f7d4427fb9p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2365a8aa6e3e5p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 2, 0, 0x1.30f89c04e3e74p-37, 0x1.7a0675d04649ep-38, 1, 0x1.2365a8aa6e3e5p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 2, 1, 0x1.3588e057c8485p-37, 0x1.7a0675d04649ep-38, 1, 0x1.2365a8aa6e3e5p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 3, 0, 0x1.3a1924aaaca96p-37, 0x1.7a0675d04649ep-38, 1, 0x1.2365a8aa6e3e5p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 12, 3, 1, 0x1.3a1924aaaca96p-37, 0x1.7a0675d04649ep-38, 1, 0x1.2365a8aa6e3e5p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 0, 0, 0x0p+0, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 0, 1, 0x1.1cd7a9b3a4428p-42, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 1, 0, 0x1.1cd7a9b3a4428p-41, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 1, 1, 0x1.e0321d4a85905p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 1, 2, 0x1.48da22d7fda47p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 1, 3, 0x1.48da22d7fda48p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 1, 4, 0x1.48da22d7fda47p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 1, 5, 0x1.48da22d7fda48p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 2, 0, 0x1.4c95eececebbcp-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 2, 1, 0x1.51263321b31cdp-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 3, 0, 0x1.55b67774977dep-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 15, 3, 1, 0x1.55b67774977dep-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 0, 0, 0x0p+0, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 0, 1, 0x1.1cd7a9b3a4428p-42, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 1, 0, 0x1.1cd7a9b3a4428p-41, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 1, 1, 0x1.da98ccbc643a6p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 1, 2, 0x1.4340d249dc4e9p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 1, 3, 0x1.4340d249dc4eap-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 1, 4, 0x1.4340d249dc4e9p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 1, 5, 0x1.4340d249dc4eap-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 2, 0, 0x1.49c94687be10ep-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 2, 1, 0x1.4e598adaa271fp-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 3, 0, 0x1.52e9cf2d86d3p-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 16, 3, 1, 0x1.52e9cf2d86d3p-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 0, 0, 0x0p+0, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 0, 1, 0x1.1cd7a9b3a4428p-42, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 1, 0, 0x1.1cd7a9b3a4428p-41, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 1, 1, 0x1.c13c603d2f5a8p-39, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 1, 2, 0x1.17e28b541a3c2p-40, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 1, 3, 0x1.17e28b541a3c2p-40, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 1, 4, 0x1.17e28b541a3c2p-40, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 1, 5, 0x1.17e28b541a3c2p-40, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 2, 0, 0x1.9da16b06bad23p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 2, 1, 0x1.a6c1f3ac83945p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 3, 0, 0x1.afe27c524c568p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 533, 3, 1, 0x1.afe27c524c568p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 0, 0, 0x0p+0, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 0, 1, 0x1.1cd7a9b3a4428p-42, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 1, 0, 0x1.1cd7a9b3a4428p-41, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 1, 1, 0x1.e0321d4a85905p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 1, 2, 0x1.48da22d7fda47p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 1, 3, 0x1.48da22d7fda48p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 1, 4, 0x1.48da22d7fda47p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 1, 5, 0x1.48da22d7fda48p-38, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 2, 0, 0x1.4c95eececebbcp-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 2, 1, 0x1.51263321b31cdp-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 3, 0, 0x1.55b67774977dep-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
    {"modern", 534, 3, 1, 0x1.55b67774977dep-37, 0x1.7a0675d04649ep-38, 1, 0x1.2368d5d0b9ef1p-27, 0x1.0dea1e66b8ffep-32, 925, 0x8ab242de5cb3e17eULL},
};

/** Every case of @p p: each cut, each micro-step, fractions 0 and
 *  0.5, plus the pulse-edge fractions while executing. */
void
checkProgram(const PinProgram &p)
{
    std::vector<const CasePin *> pins;
    for (const CasePin &pin : kPins) {
        if (std::string(pin.program) == p.name) {
            pins.push_back(&pin);
        }
    }
    std::size_t next = 0;
    const GateLibrary lib(makeDeviceConfig(p.cfg.tech),
                          p.cfg.gateMargin);
    for (const std::size_t cut : cutsOf(p.program)) {
        const std::vector<double> fr =
            fractionsFor(lib, p.program.instructions[cut]);
        for (const MicroStep at :
             {MicroStep::kFetch, MicroStep::kExecute,
              MicroStep::kWritePc, MicroStep::kCommit}) {
            const int nf = at == MicroStep::kExecute
                               ? static_cast<int>(fr.size())
                               : 2;
            for (int fi = 0; fi < nf; ++fi) {
                const CasePin got =
                    runCase(p, cut, at, fi,
                            fr[static_cast<std::size_t>(fi)]);
                const std::string row = format(got);
                if (next >= pins.size()) {
                    ADD_FAILURE() << "unpinned case " << row;
                    continue;
                }
                EXPECT_EQ(row, format(*pins[next++]));
            }
        }
    }
    EXPECT_EQ(next, pins.size());
}

TEST(ProtocolPins, ServedBnn)
{
    checkProgram(servedProgram(false));
}

TEST(ProtocolPins, ServedSvm)
{
    checkProgram(servedProgram(true));
}

TEST(ProtocolPins, ModernSttMultiplySum)
{
    checkProgram(modernProgram());
}

} // namespace
} // namespace mouse
