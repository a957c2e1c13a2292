/**
 * @file
 * Differential tests for the word-parallel gate execution fast path:
 * the word path and the retained per-column scalar oracle
 * (Tile::setScalarOracle) must produce bit-identical MTJ state for
 * every gate type, technology, margin, random column mask, un-preset
 * output, and cycle_fraction — including partial-pulse interrupts —
 * and matching switch/column counts.  Device energy is compared to a
 * tight relative tolerance (the word path folds per-bucket popcount
 * multiplies instead of a per-column sum, so the totals may differ
 * in ulps).  The word path's POPCNT and portable builds
 * (Tile::setPortablePopcount) must agree exactly, energy included.
 *
 * Also here: the row-field and column-range writers against their
 * per-bit equivalents, and a pin of served BNN/SVM batches on the
 * serving geometry (RunStats, predictions and tile state).
 */

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "arch/tile.hh"
#include "common/rng.hh"
#include "logic/gate_library.hh"
#include "serve/demo.hh"
#include "serve/service.hh"

namespace mouse
{
namespace
{

/** Scoped switch into the scalar oracle, restored on exit. */
class ScalarOracleGuard
{
  public:
    ScalarOracleGuard() { Tile::setScalarOracle(true); }
    ~ScalarOracleGuard() { Tile::setScalarOracle(false); }
};

/** Scoped switch into the portable popcount build, restored on exit. */
class PortablePopcountGuard
{
  public:
    PortablePopcountGuard() { Tile::setPortablePopcount(true); }
    ~PortablePopcountGuard() { Tile::setPortablePopcount(false); }
};

void
expectEnergyNear(Joules a, Joules b)
{
    const double tol =
        1e-9 * std::max({std::fabs(a), std::fabs(b), 1e-30});
    EXPECT_NEAR(a, b, tol);
}

/** Fill the tiles with identical random contents. */
void
randomFill(Tile &a, Tile &b, Rng &rng, Tile *c = nullptr)
{
    for (RowAddr r = 0; r < a.numRows(); ++r) {
        for (ColAddr col = 0; col < a.numCols(); ++col) {
            const Bit v = static_cast<Bit>(rng.below(2));
            a.setBit(r, col, v);
            b.setBit(r, col, v);
            if (c != nullptr) {
                c->setBit(r, col, v);
            }
        }
    }
}

ColumnSet
randomColumns(unsigned cols, Rng &rng)
{
    ColumnSet set(cols);
    // Mix densities so both sparse masks and full words occur.
    const double density = rng.uniform();
    for (ColAddr c = 0; c < cols; ++c) {
        if (rng.uniform() < density) {
            set.add(c);
        }
    }
    return set;
}

/**
 * Execute one gate on three identically-seeded tiles — the host's
 * word path, the portable word path and the scalar oracle — and
 * require bit-identical state and bookkeeping.
 */
void
diffExecute(const GateLibrary &lib, GateType g, unsigned rows,
            unsigned cols, double cycle_fraction, Rng &rng)
{
    const int n = gateNumInputs(g);
    Tile word(rows, cols);
    Tile portable(rows, cols);
    Tile scalar(rows, cols);
    randomFill(word, scalar, rng, &portable);
    const ColumnSet active = randomColumns(cols, rng);

    // Distinct even input rows, odd output row (parity rule).
    std::array<RowAddr, 3> in_rows{0, 0, 0};
    for (int i = 0; i < n; ++i) {
        RowAddr r;
        bool fresh;
        do {
            r = static_cast<RowAddr>(2 * rng.below(rows / 2));
            fresh = true;
            for (int j = 0; j < i; ++j) {
                fresh &= in_rows[static_cast<std::size_t>(j)] != r;
            }
        } while (!fresh);
        in_rows[static_cast<std::size_t>(i)] = r;
    }
    const RowAddr out_row =
        static_cast<RowAddr>(1 + 2 * rng.below(rows / 2));

    const GateExecResult rw = word.executeGate(
        lib, g, in_rows, out_row, active, cycle_fraction);
    GateExecResult rp;
    {
        PortablePopcountGuard slow;
        rp = portable.executeGate(lib, g, in_rows, out_row, active,
                                  cycle_fraction);
    }
    GateExecResult rs;
    {
        ScalarOracleGuard oracle;
        rs = scalar.executeGate(lib, g, in_rows, out_row, active,
                                cycle_fraction);
    }

    const std::vector<Bit> state = word.snapshot();
    EXPECT_EQ(state, portable.snapshot())
        << "gate " << gateName(g) << " fraction " << cycle_fraction;
    EXPECT_EQ(rw.switched, rp.switched);
    EXPECT_EQ(rw.deviceEnergy, rp.deviceEnergy);
    EXPECT_EQ(state, scalar.snapshot())
        << "gate " << gateName(g) << " fraction " << cycle_fraction;
    EXPECT_EQ(rw.switched, rs.switched);
    EXPECT_EQ(rw.columns, rs.columns);
    EXPECT_EQ(rw.completed, rs.completed);
    expectEnergyNear(rw.deviceEnergy, rs.deviceEnergy);
}

/** Sweep every feasible gate of @p lib over interrupt fractions and
 *  random masks/contents.  The default 96 columns are one full word
 *  plus a 32-bit tail. */
void
diffSweep(const GateLibrary &lib, std::uint64_t seed,
          unsigned rows = 64, unsigned cols = 96, int trials = 3)
{
    const DeviceConfig &cfg = lib.config();
    for (GateType g : lib.feasibleGates()) {
        const SolvedGate &solved = lib.gate(g);
        const double pf = solved.pulseTime / cfg.cycleTime;
        const double fractions[] = {
            1.0,                         // uninterrupted
            0.0,                         // cut at cycle start
            pf * 0.5,                    // mid-pulse
            std::nextafter(pf, 0.0),     // just inside the pulse
            pf,                          // exact pulse boundary
            (pf + 1.0) * 0.5,            // after the pulse
        };
        Rng rng(seed ^ static_cast<std::uint64_t>(g));
        for (double f : fractions) {
            for (int trial = 0; trial < trials; ++trial) {
                diffExecute(lib, g, rows, cols, f, rng);
            }
        }
    }
}

TEST(TileFastPath, MatchesScalarOracleAllTechsAndMargins)
{
    const TechConfig techs[] = {TechConfig::ModernStt,
                                TechConfig::ProjectedStt,
                                TechConfig::ProjectedShe};
    const double margins[] = {kDefaultGateMargin, 0.02};
    std::uint64_t seed = 1;
    for (TechConfig tech : techs) {
        for (double margin : margins) {
            const GateLibrary lib(makeDeviceConfig(tech), margin);
            diffSweep(lib, seed++);
        }
    }
}

TEST(TileFastPath, MatchesScalarOracleWithWireParasitics)
{
    // Non-zero per-cell wire resistance makes the operating table
    // span-dependent: the fast path must rebuild it per call from
    // the factored combo resistances, still bit-exactly.
    const TechConfig techs[] = {TechConfig::ProjectedStt,
                                TechConfig::ProjectedShe};
    std::uint64_t seed = 101;
    for (TechConfig tech : techs) {
        const DeviceConfig cfg =
            withParasitics(makeDeviceConfig(tech), 2.0);
        const GateLibrary lib(cfg);
        diffSweep(lib, seed++);
    }
}

TEST(TileFastPath, MatchesScalarOracleOnWideTileWithPartialLastWord)
{
    // 1000 columns: fifteen full words and a 40-column last word.
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    diffSweep(lib, 211, /*rows=*/8, /*cols=*/1000, /*trials=*/1);
}

TEST(TileFastPath, HostPicksPopcountBuildOnce)
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    EXPECT_EQ(Tile::hardwarePopcount(),
              __builtin_cpu_supports("popcnt") != 0);
#endif
    {
        PortablePopcountGuard slow;
        EXPECT_FALSE(Tile::hardwarePopcount());
    }
}

TEST(TileFastPath, UnPresetOutputsMatchScalar)
{
    // Force the output row to the non-preset state everywhere: no
    // column may switch (directionality), and the energy must be the
    // honest already-switched current, identically in both paths.
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedStt));
    Rng rng(7);
    for (GateType g : lib.feasibleGates()) {
        Tile word(8, 96);
        Tile scalar(8, 96);
        randomFill(word, scalar, rng);
        const Bit anti = static_cast<Bit>(!gatePreset(g));
        for (ColAddr c = 0; c < 96; ++c) {
            word.setBit(1, c, anti);
            scalar.setBit(1, c, anti);
        }
        ColumnSet active(96);
        active.addRange(0, 95);
        const GateExecResult rw =
            word.executeGate(lib, g, {0, 2, 4}, 1, active);
        GateExecResult rs;
        {
            ScalarOracleGuard oracle;
            rs = scalar.executeGate(lib, g, {0, 2, 4}, 1, active);
        }
        EXPECT_EQ(rw.switched, 0u);
        EXPECT_EQ(rs.switched, 0u);
        EXPECT_EQ(word.snapshot(), scalar.snapshot());
        expectEnergyNear(rw.deviceEnergy, rs.deviceEnergy);
    }
}

TEST(TileFastPath, EmptyAndFullMasksMatchScalar)
{
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedShe));
    Tile word(8, 64);
    Tile scalar(8, 64);
    Rng rng(11);
    randomFill(word, scalar, rng);

    ColumnSet none(64);
    ColumnSet all(64);
    all.addRange(0, 63);
    for (const ColumnSet *active : {&none, &all}) {
        const GateExecResult rw = word.executeGate(
            lib, GateType::kNand2, {0, 2, 0}, 1, *active);
        GateExecResult rs;
        {
            ScalarOracleGuard oracle;
            rs = scalar.executeGate(lib, GateType::kNand2, {0, 2, 0},
                                    1, *active);
        }
        EXPECT_EQ(rw.columns, active->count());
        EXPECT_EQ(rw.switched, rs.switched);
        EXPECT_EQ(word.snapshot(), scalar.snapshot());
        expectEnergyNear(rw.deviceEnergy, rs.deviceEnergy);
    }
}

TEST(TileFastPath, PresetRowInterruptionAcrossWordBoundary)
{
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedStt));
    const double pf = lib.writeOp().pulseTime /
                      lib.config().cycleTime;
    Tile tile(4, 96);
    ColumnSet active(96);
    active.add(0);
    active.add(63);
    active.add(64);
    active.add(95);

    // Interrupt inside the write pulse: contents keep, energy scales.
    const Joules partial =
        tile.presetRow(lib, 1, 1, active, pf * 0.25);
    for (ColAddr c : active.columns()) {
        EXPECT_EQ(tile.bit(1, c), 0);
    }
    const Joules full = tile.presetRow(lib, 1, 1, active, 1.0);
    for (ColAddr c : active.columns()) {
        EXPECT_EQ(tile.bit(1, c), 1);
    }
    EXPECT_EQ(tile.bit(1, 1), 0);
    EXPECT_EQ(tile.bit(1, 65), 0);
    expectEnergyNear(partial, full * 0.25);

    // Preset back to 0 only where active.
    tile.presetRow(lib, 1, 0, active, 1.0);
    for (ColAddr c : active.columns()) {
        EXPECT_EQ(tile.bit(1, c), 0);
    }
}

TEST(TileFastPath, WriteReadRowRoundTripAcrossWordBoundary)
{
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedShe));
    Tile tile(4, 70);
    Rng rng(23);
    std::vector<Bit> data(70);
    for (Bit &b : data) {
        b = static_cast<Bit>(rng.below(2));
    }
    const double pf = lib.writeOp().pulseTime /
                      lib.config().cycleTime;
    // Interrupted write leaves the row untouched.
    tile.writeRow(lib, 2, data, pf * 0.5);
    std::vector<Bit> readback;
    tile.readRow(lib, 2, readback);
    EXPECT_EQ(readback, std::vector<Bit>(70, 0));
    // Complete write round-trips.
    tile.writeRow(lib, 2, data, 1.0);
    tile.readRow(lib, 2, readback);
    EXPECT_EQ(readback, data);
}

TEST(TileFastPath, ColumnSetWordsAgreeWithEnumeration)
{
    Rng rng(31);
    ColumnSet set(200);
    for (ColAddr c = 0; c < 200; ++c) {
        if (rng.below(3) == 0) {
            set.add(c);
        }
    }
    // word()/numWords() expose exactly the membership columns() and
    // forEachColumn() enumerate.
    std::vector<ColAddr> from_words;
    for (unsigned w = 0; w < set.numWords(); ++w) {
        std::uint64_t bits = set.word(w);
        while (bits) {
            const int b = __builtin_ctzll(bits);
            from_words.push_back(
                static_cast<ColAddr>(w * 64 + static_cast<unsigned>(b)));
            bits &= bits - 1;
        }
    }
    EXPECT_EQ(from_words, set.columns());
    std::vector<ColAddr> visited;
    set.forEachColumn([&](ColAddr c) { visited.push_back(c); });
    EXPECT_EQ(visited, set.columns());
    EXPECT_EQ(set.count(), visited.size());
}

TEST(TileFastPath, SetRowFieldMatchesPerBitWrites)
{
    // Fields at every offset of a word, straddling word boundaries,
    // against setBit on a twin tile over random prior contents.
    Rng rng(41);
    for (const unsigned cols : {64u, 96u, 200u}) {
        Tile fast(4, cols);
        Tile slow(4, cols);
        randomFill(fast, slow, rng);
        for (int trial = 0; trial < 400; ++trial) {
            const unsigned width =
                static_cast<unsigned>(rng.below(65));
            const ColAddr col = static_cast<ColAddr>(
                rng.below(cols - std::min(width, cols) + 1));
            const RowAddr row = static_cast<RowAddr>(rng.below(4));
            const std::uint64_t bits = rng.next();
            fast.setRowField(row, col, width, bits);
            for (unsigned j = 0; j < width; ++j) {
                slow.setBit(row, static_cast<ColAddr>(col + j),
                            static_cast<Bit>((bits >> j) & 1));
            }
            ASSERT_EQ(fast.snapshot(), slow.snapshot())
                << cols << " cols, field " << col << "+" << width;
        }
    }

    // The explicit straddles: 64 bits from column 1 and from 63, and
    // a field that ends exactly on a word boundary.
    Tile tile(2, 192);
    tile.setRowField(0, 1, 64, ~0ULL);
    EXPECT_EQ(tile.bit(0, 0), 0);
    EXPECT_EQ(tile.bit(0, 1), 1);
    EXPECT_EQ(tile.bit(0, 64), 1);
    EXPECT_EQ(tile.bit(0, 65), 0);
    tile.setRowField(1, 63, 64, 0x5ULL);
    EXPECT_EQ(tile.bit(1, 63), 1);
    EXPECT_EQ(tile.bit(1, 64), 0);
    EXPECT_EQ(tile.bit(1, 65), 1);
    EXPECT_EQ(tile.bit(1, 126), 0);
    tile.setRowField(1, 120, 8, 0xffULL);
    EXPECT_EQ(tile.bit(1, 127), 1);
    EXPECT_EQ(tile.bit(1, 128), 0);
    tile.setRowField(1, 0, 0, ~0ULL);
    EXPECT_EQ(tile.bit(1, 0), 0);
}

TEST(TileFastPath, AddRangeMatchesPerColumnAdds)
{
    // Ranges straddling words and overlapping bits already set give
    // the same words and count() as column-at-a-time add().
    Rng rng(53);
    for (const unsigned cols : {64u, 100u, 1024u}) {
        for (int trial = 0; trial < 50; ++trial) {
            ColumnSet fast(cols);
            ColumnSet slow(cols);
            for (int step = 0; step < 6; ++step) {
                if (rng.below(2) == 0) {
                    const ColAddr c =
                        static_cast<ColAddr>(rng.below(cols));
                    fast.add(c);
                    slow.add(c);
                    continue;
                }
                ColAddr lo = static_cast<ColAddr>(rng.below(cols));
                ColAddr hi = static_cast<ColAddr>(rng.below(cols));
                if (lo > hi) {
                    std::swap(lo, hi);
                }
                fast.addRange(lo, hi);
                for (ColAddr c = lo; c <= hi; ++c) {
                    slow.add(c);
                }
                for (unsigned w = 0; w < fast.numWords(); ++w) {
                    ASSERT_EQ(fast.word(w), slow.word(w))
                        << cols << " cols, range " << lo << ".." << hi;
                }
                ASSERT_EQ(fast.count(), slow.count());
            }
        }
    }
    ColumnSet empty(64);
    empty.addRange(5, 4);
    EXPECT_EQ(empty.count(), 0u);
}

/** RunStats, packed-state digest, end-state digest and predictions of
 *  one served batch. */
struct BatchPin
{
    unsigned model;
    unsigned filled;
    std::uint64_t committed;
    std::uint64_t dead;
    std::uint64_t outages;
    double activeTime;
    double deadTime;
    double restoreTime;
    double chargingTime;
    double computeEnergy;
    double backupEnergy;
    double deadEnergy;
    double restoreEnergy;
    double idleEnergy;
    std::uint64_t packedDigest;
    std::uint64_t endDigest;
    const char *predictions;
};

std::uint64_t
stateDigest(const Tile &tile)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (const Bit b : tile.snapshot()) {
        h ^= b;
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(TileFastPath, ServedBatchesArePinned)
{
    // The serving geometry of the repository benchmark (ProjectedStt,
    // 512x1024, one data tile): the demo BNN (256 slots) and SVM
    // (128 slots), each as a full and then a one-third batch on the
    // same engine, so clearInput() must scrub the previous batch.
    // Every value was recorded from the bit-at-a-time packing and the
    // single-build gate kernel, and must not move.
    const BatchPin pins[] = {
        {0, 256, 677u, 0u, 0u, 0x1.f47f76e13b80cp-18, 0x0p+0, 0x0p+0,
         0x0p+0, 0x1.8a207fca082abp-30, 0x1.bb9541f6bf841p-39, 0x0p+0,
         0x0p+0, 0x0p+0, 0xb21a70e9424b13a7ULL, 0x425b00f34e5f6369ULL,
         "31031030011122102320222300001002111103323022223203102003212031"
         "11110130001112012212203312003222122230330221111200001130133113"
         "30123103000103021313120102100111132003002211331223313102112133"
         "1032113201003001120012102022112211321121220110111001232013303103"
         "110301"},
        {0, 85, 677u, 0u, 0u, 0x1.f47f76e13b80cp-18, 0x0p+0, 0x0p+0,
         0x0p+0, 0x1.89ae057ea5447p-30, 0x1.bb9541f6bf841p-39, 0x0p+0,
         0x0p+0, 0x0p+0, 0x801f5a74bea2aa51ULL, 0x8b873498ed523f3aULL,
         "31120113100122133323332333033131123023330223233201003222300311"
         "13201222111131111202020"},
        {1, 128, 11089u, 0u, 0u, 0x1.ffa9c3de3b471p-14, 0x0p+0, 0x0p+0,
         0x0p+0, 0x1.8ff3c7af425fp-26, 0x1.b914f93e93ac5p-35, 0x0p+0,
         0x0p+0, 0x0p+0, 0xc4051a849568b2ceULL, 0x39c14259c3631590ULL,
         "10110010111000111011110101111000111111010010011111101110000111"
         "00101001110011010100011111111111011111111110011000011111110001"
         "0010"},
        {1, 42, 11089u, 0u, 0u, 0x1.ffa9c3de3b471p-14, 0x0p+0, 0x0p+0,
         0x0p+0, 0x1.8ff2e4122293p-26, 0x1.b914f93e93ac5p-35, 0x0p+0,
         0x0p+0, 0x0p+0, 0xe08abf2fa9188390ULL, 0xbd931384b544068eULL,
         "110111011101110011001111110001100100101101"},
    };

    serve::ServiceConfig cfg;
    cfg.engine.tech = TechConfig::ProjectedStt;
    cfg.engine.array.tileRows = 512;
    cfg.engine.array.tileCols = 1024;
    cfg.engine.array.numDataTiles = 1;
    cfg.engine.array.numInstructionTiles = 4096;
    cfg.workers = 1;
    serve::InferenceService svc(cfg);
    const serve::ModelId bnn = svc.addModel(serve::demoBnn(1));
    const serve::ModelId svm = svc.addModel(serve::demoSvm(2));
    Accelerator acc(cfg.engine);
    Rng rng(18);
    std::size_t next = 0;
    for (const serve::ModelId id : {bnn, svm}) {
        const serve::PackedModel &m = svc.model(id);
        for (const unsigned filled : {m.slots(), m.slots() / 3}) {
            ASSERT_LT(next, std::size(pins));
            const BatchPin &pin = pins[next++];
            std::vector<serve::Input> in;
            for (unsigned s = 0; s < filled; ++s) {
                in.push_back(serve::randomInput(rng, m));
            }
            acc.loadProgram(m.program());
            m.deployWeights(acc.grid());
            for (unsigned s = 0; s < m.slots(); ++s) {
                if (s < filled) {
                    m.packInput(acc.grid(), s, in[s]);
                } else {
                    m.clearInput(acc.grid(), s);
                }
            }
            const std::string label =
                m.name() + " x" + std::to_string(filled);
            EXPECT_EQ(stateDigest(acc.grid().tile(0)), pin.packedDigest)
                << label;
            const RunResult res = acc.execute(RunRequest{});
            ASSERT_TRUE(res.ok()) << label;
            std::string predicted;
            for (unsigned s = 0; s < filled; ++s) {
                predicted += static_cast<char>(
                    '0' + m.readPrediction(acc.grid(), s));
            }
            const RunStats &st = res.stats;
            EXPECT_EQ(id, pin.model);
            EXPECT_EQ(filled, pin.filled);
            EXPECT_EQ(st.instructionsCommitted, pin.committed) << label;
            EXPECT_EQ(st.instructionsDead, pin.dead) << label;
            EXPECT_EQ(st.outages, pin.outages) << label;
            EXPECT_EQ(st.activeTime, pin.activeTime) << label;
            EXPECT_EQ(st.deadTime, pin.deadTime) << label;
            EXPECT_EQ(st.restoreTime, pin.restoreTime) << label;
            EXPECT_EQ(st.chargingTime, pin.chargingTime) << label;
            EXPECT_EQ(st.computeEnergy, pin.computeEnergy) << label;
            EXPECT_EQ(st.backupEnergy, pin.backupEnergy) << label;
            EXPECT_EQ(st.deadEnergy, pin.deadEnergy) << label;
            EXPECT_EQ(st.restoreEnergy, pin.restoreEnergy) << label;
            EXPECT_EQ(st.idleEnergy, pin.idleEnergy) << label;
            EXPECT_EQ(stateDigest(acc.grid().tile(0)), pin.endDigest)
                << label;
            EXPECT_EQ(predicted, pin.predictions) << label;
        }
    }
    EXPECT_EQ(next, std::size(pins));
}

} // namespace
} // namespace mouse
