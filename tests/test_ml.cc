/**
 * @file
 * Tests for the ML layer: synthetic datasets, SVM training and
 * integer inference, BNN training/inference, and — the load-bearing
 * one — bit-exact equivalence between software SVM inference and the
 * compiled in-array program.
 */

#include <algorithm>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "controller/controller.hh"
#include "exp/workloads.hh"
#include "ml/bnn.hh"
#include "ml/dataset.hh"
#include "ml/mapping.hh"
#include "ml/svm.hh"

namespace mouse
{
namespace
{

TEST(Dataset, ShapesMatchPaper)
{
    EXPECT_EQ(shapeFeatures(DataShape::MnistLike), 784u);
    EXPECT_EQ(shapeClasses(DataShape::MnistLike), 10u);
    EXPECT_EQ(shapeFeatures(DataShape::HarLike), 561u);
    EXPECT_EQ(shapeClasses(DataShape::HarLike), 6u);
    EXPECT_EQ(shapeFeatures(DataShape::AdultLike), 15u);
    EXPECT_EQ(shapeClasses(DataShape::AdultLike), 2u);
}

TEST(Dataset, SyntheticIsDeterministicAndCoversClasses)
{
    const Dataset a = makeSynthetic(DataShape::HarLike, 200, 42);
    const Dataset b = makeSynthetic(DataShape::HarLike, 200, 42);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
    std::vector<bool> seen(a.numClasses, false);
    for (int y : a.y) {
        ASSERT_GE(y, 0);
        ASSERT_LT(y, static_cast<int>(a.numClasses));
        seen[static_cast<std::size_t>(y)] = true;
    }
    for (bool s : seen) {
        EXPECT_TRUE(s);
    }
}

TEST(Dataset, BinarizePreservesShapeAndThresholds)
{
    const Dataset data = makeSynthetic(DataShape::AdultLike, 50, 1);
    const Dataset bin = binarize(data, 128);
    EXPECT_EQ(bin.size(), data.size());
    EXPECT_EQ(bin.numFeatures, data.numFeatures);
    for (std::size_t i = 0; i < bin.size(); ++i) {
        for (unsigned j = 0; j < bin.numFeatures; ++j) {
            EXPECT_EQ(bin.x[i][j], data.x[i][j] >= 128 ? 1 : 0);
        }
    }
}

TEST(Dataset, CsvRoundTrip)
{
    const Dataset orig = makeSynthetic(DataShape::AdultLike, 40, 21);
    const std::string path = ::testing::TempDir() + "mouse_ds.csv";
    saveCsv(orig, path);
    const Dataset back = loadCsv(path, orig.numClasses);
    EXPECT_EQ(back.numFeatures, orig.numFeatures);
    EXPECT_EQ(back.x, orig.x);
    EXPECT_EQ(back.y, orig.y);
}

TEST(Dataset, CsvRejectsBadLabels)
{
    const std::string path = ::testing::TempDir() + "mouse_bad.csv";
    {
        std::ofstream out(path);
        out << "1,2,3,9\n";  // label 9 with num_classes 2
    }
    EXPECT_EXIT(loadCsv(path, 2), ::testing::ExitedWithCode(1),
                "label");
}

TEST(Dataset, CsvSkipsCommentsAndBlanks)
{
    const std::string path = ::testing::TempDir() + "mouse_cmt.csv";
    {
        std::ofstream out(path);
        out << "# header\n\n10,20,1\n# trailing\n30,40,0\n";
    }
    const Dataset data = loadCsv(path, 2);
    ASSERT_EQ(data.size(), 2u);
    EXPECT_EQ(data.numFeatures, 2u);
    EXPECT_EQ(data.x[0][1], 20);
    EXPECT_EQ(data.y[1], 0);
}

TEST(Svm, DotAndKernelIntegerMath)
{
    const Features u = {1, 2, 3};
    const Features v = {4, 5, 6};
    EXPECT_EQ(dot(u, v), 4 + 10 + 18);
    EXPECT_EQ(static_cast<std::int64_t>(polyKernel2(u, v)), 32 * 32);
}

TEST(Svm, TrainsToHighAccuracyOnSeparableData)
{
    // Low-noise synthetic clusters are nearly separable; the kernel
    // perceptron should fit them nearly perfectly.
    const Dataset train =
        makeSynthetic(DataShape::AdultLike, 300, 7, 12.0);
    const Dataset test =
        makeSynthetic(DataShape::AdultLike, 200, 8, 12.0);
    const SvmModel model = trainSvm(train);
    EXPECT_GT(svmAccuracy(model, train), 0.95);
    EXPECT_GT(svmAccuracy(model, test), 0.90);
    EXPECT_GT(model.totalSupportVectors(), 0u);
    EXPECT_LE(model.maxSupportVectors(), train.size());
}

TEST(Svm, MultiClassOneVsRest)
{
    const Dataset train =
        makeSynthetic(DataShape::HarLike, 240, 17, 16.0);
    const SvmModel model = trainSvm(train);
    EXPECT_EQ(model.classifiers.size(), 6u);
    EXPECT_GT(svmAccuracy(model, train), 0.9);
}

TEST(Svm, BinarizedStillSeparable)
{
    const Dataset train = binarize(
        makeSynthetic(DataShape::MnistLike, 150, 3, 16.0));
    const SvmModel model = trainSvm(train);
    EXPECT_GT(svmAccuracy(model, train), 0.9);
}

TEST(Bnn, ShapesMatchPaperConfigs)
{
    const BnnShape finn = finnShape();
    EXPECT_EQ(finn.inputBits, 784u);
    EXPECT_EQ(finn.hiddenWidths,
              (std::vector<unsigned>{1024, 1024, 1024}));
    const BnnShape fp = fpBnnShape();
    EXPECT_EQ(fp.inputBits, 784u * 8);
    EXPECT_EQ(fp.hiddenWidths,
              (std::vector<unsigned>{2048, 2048, 2048}));
}

TEST(Bnn, BitPlanesRoundTrip)
{
    const Features f = {0x00, 0xFF, 0xA5};
    const auto bits = bitPlanes(f);
    ASSERT_EQ(bits.size(), 24u);
    for (int b = 0; b < 8; ++b) {
        EXPECT_EQ(bits[static_cast<std::size_t>(b)], 0);
        EXPECT_EQ(bits[static_cast<std::size_t>(8 + b)], 1);
        EXPECT_EQ(bits[static_cast<std::size_t>(16 + b)],
                  (0xA5 >> b) & 1);
    }
}

TEST(Bnn, TrainsAboveChanceOnSyntheticData)
{
    // A reduced FINN-like network (same structure, narrower layers)
    // keeps the test fast; the training pipeline is identical.
    Dataset train = binarize(
        makeSynthetic(DataShape::MnistLike, 240, 5, 16.0));
    BnnShape shape;
    shape.inputBits = 784;
    shape.hiddenWidths = {64, 64};
    shape.numClasses = 10;
    BnnTrainConfig cfg;
    cfg.epochs = 8;
    const BnnModel model = trainBnn(train, shape, cfg);
    const double acc = bnnAccuracy(model, train);
    EXPECT_GT(acc, 0.5) << "training accuracy " << acc;
    EXPECT_EQ(model.weightBits(),
              784u * 64 + 64u * 64 + 64u * 10);
}

TEST(Bnn, ForwardIsDeterministicInteger)
{
    Dataset train = binarize(
        makeSynthetic(DataShape::AdultLike, 60, 11, 16.0));
    BnnShape shape;
    shape.inputBits = 15;
    shape.hiddenWidths = {16};
    shape.numClasses = 2;
    const BnnModel model = trainBnn(train, shape);
    const auto s1 = model.scores(train.x[0]);
    const auto s2 = model.scores(train.x[0]);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1.size(), 2u);
}

// ---------------------------------------------------------------------
// Mapping / layout model
// ---------------------------------------------------------------------

class MappingTech : public ::testing::TestWithParam<TechConfig>
{
  protected:
    GateLibrary lib_{makeDeviceConfig(GetParam())};
};

TEST_P(MappingTech, SvmLayoutInvariants)
{
    SvmWorkload work;
    work.name = "mnist";
    work.numSupportVectors = 11813;
    work.dim = 784;
    work.inputBits = 8;
    work.numClasses = 10;
    MouseShape shape;
    shape.numDataTiles = 448;

    MappingInfo info;
    const Trace trace = buildSvmTrace(lib_, work, shape, &info);

    EXPECT_GE(info.elementsPerColumn, 1u);
    EXPECT_EQ(info.colsPerUnit,
              (work.dim + info.elementsPerColumn - 1) /
                  info.elementsPerColumn);
    EXPECT_EQ(info.batches, 1u);  // everything fits at once
    EXPECT_LE(info.peakActiveColumns, shape.totalColumns());
    EXPECT_GT(trace.totalInstructions(), 100000u);
    // The paper's SVM MNIST instruction memory is 4.5 MB; ours must
    // land in the same regime (straight-line program).
    EXPECT_GT(info.instrMB, 1.0);
    EXPECT_LT(info.instrMB, 16.0);
    EXPECT_GT(info.dataMB, 8.0);
    EXPECT_LT(info.dataMB, 40.0);
}

TEST_P(MappingTech, BinarizedSvmIsMuchCheaper)
{
    SvmWorkload full;
    full.name = "mnist";
    full.numSupportVectors = 11813;
    full.dim = 784;
    full.inputBits = 8;
    full.numClasses = 10;

    SvmWorkload bin = full;
    bin.inputBits = 1;
    bin.numSupportVectors = 12214;
    bin.accBits = 11;
    bin.squareBits = 22;
    bin.scoreBits = 30;

    MouseShape big;
    big.numDataTiles = 448;
    MouseShape small;
    small.numDataTiles = 56;
    const Trace t_full = buildSvmTrace(lib_, full, big);
    const Trace t_bin = buildSvmTrace(lib_, bin, small);
    // Section IX: binarization replaces multiplications with AND
    // gates, cutting computation by several-fold.
    EXPECT_LT(t_bin.totalInstructions() * 4,
              t_full.totalInstructions());
}

TEST_P(MappingTech, BnnSmallArrayBatchesSequentially)
{
    // A one-tile array cannot hold FP-BNN's 26k columns at once; the
    // Section IV-C batching splits the layer into sequential chunks,
    // costing instructions (distribution re-runs per chunk).
    MouseShape tiny;
    tiny.numDataTiles = 1;
    MouseShape big;
    big.numDataTiles = 120;
    MappingInfo tiny_info;
    const Trace t_tiny =
        buildBnnTrace(lib_, fpBnnShape(), tiny, &tiny_info);
    const Trace t_big = buildBnnTrace(lib_, fpBnnShape(), big);
    EXPECT_LE(tiny_info.peakActiveColumns, 1024u);
    EXPECT_GT(t_tiny.totalInstructions(),
              t_big.totalInstructions());
}

TEST_P(MappingTech, BnnCapBelowOneNeuronIsFatal)
{
    MouseShape shape;
    shape.numDataTiles = 64;
    shape.maxActiveColumns = 1;  // less than one neuron's columns
    EXPECT_DEATH(buildBnnTrace(lib_, fpBnnShape(), shape),
                 "exceeds");
}

TEST_P(MappingTech, ParallelismCapForcesSvmBatches)
{
    SvmWorkload work;
    work.name = "adult";
    work.numSupportVectors = 1909;
    work.dim = 15;
    work.inputBits = 8;
    work.numClasses = 2;
    MouseShape shape;
    shape.numDataTiles = 7;

    MappingInfo unlimited;
    const Trace t_free = buildSvmTrace(lib_, work, shape, &unlimited);
    shape.maxActiveColumns = 64;
    MappingInfo capped;
    const Trace t_cap = buildSvmTrace(lib_, work, shape, &capped);

    EXPECT_EQ(unlimited.batches, 1u);
    EXPECT_GT(capped.batches, 1u);
    EXPECT_LE(capped.peakActiveColumns, 64u);
    // Serial batching costs latency: more total instructions.
    EXPECT_GT(t_cap.totalInstructions(), t_free.totalInstructions());
}

TEST_P(MappingTech, BnnConfigsScaleWithNetwork)
{
    MouseShape shape;
    shape.numDataTiles = 120;
    MappingInfo finn_info;
    MappingInfo fp_info;
    const Trace t_finn =
        buildBnnTrace(lib_, finnShape(), shape, &finn_info);
    const Trace t_fp =
        buildBnnTrace(lib_, fpBnnShape(), shape, &fp_info);
    // FP-BNN is the bigger network: more columns, more energy.
    EXPECT_GT(fp_info.peakActiveColumns,
              finn_info.peakActiveColumns);
    EXPECT_GT(t_fp.totalInstructions(),
              t_finn.totalInstructions());
}

INSTANTIATE_TEST_SUITE_P(AllTechs, MappingTech,
                         ::testing::Values(TechConfig::ModernStt,
                                           TechConfig::ProjectedStt,
                                           TechConfig::ProjectedShe),
                         [](const auto &info) {
                             switch (info.param) {
                               case TechConfig::ModernStt:
                                 return "ModernStt";
                               case TechConfig::ProjectedStt:
                                 return "ProjectedStt";
                               default:
                                 return "ProjectedShe";
                             }
                         });

// ---------------------------------------------------------------------
// Measured kernel mixes: the process-wide memo behind the trace
// builders must be indistinguishable from compiling every time.
// ---------------------------------------------------------------------

/** The gate libraries the memo must serve: every technology at
 *  three margins, plus one with logic-line parasitics (placement
 *  locality on). */
std::vector<GateLibrary>
memoLibraries()
{
    std::vector<GateLibrary> libs;
    for (TechConfig tech : {TechConfig::ModernStt,
                            TechConfig::ProjectedStt,
                            TechConfig::ProjectedShe}) {
        for (double margin : {0.0, 0.02, 0.05}) {
            libs.emplace_back(makeDeviceConfig(tech), margin);
        }
    }
    libs.emplace_back(
        withParasitics(makeDeviceConfig(TechConfig::ModernStt), 0.5));
    return libs;
}

std::vector<GateLibrary>
techLibraries()
{
    std::vector<GateLibrary> libs;
    for (TechConfig tech : {TechConfig::ModernStt,
                            TechConfig::ProjectedStt,
                            TechConfig::ProjectedShe}) {
        libs.emplace_back(makeDeviceConfig(tech));
    }
    return libs;
}

void
expectSameTrace(const Trace &a, const Trace &b, const std::string &what)
{
    ASSERT_EQ(a.blocks.size(), b.blocks.size()) << what;
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        const TraceBlock &x = a.blocks[i];
        const TraceBlock &y = b.blocks[i];
        EXPECT_TRUE(x.op == y.op && x.touchedCols == y.touchedCols &&
                    x.activeColsAfter == y.activeColsAfter &&
                    x.count == y.count)
            << what << " block " << i;
    }
}

/** FNV-1a over every block field. */
std::uint64_t
traceDigest(const Trace &trace)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const TraceBlock &b : trace.blocks) {
        for (std::uint64_t v :
             {static_cast<std::uint64_t>(b.op),
              static_cast<std::uint64_t>(b.touchedCols),
              static_cast<std::uint64_t>(b.activeColsAfter), b.count}) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 1099511628211ull;
            }
        }
    }
    return h;
}

TEST(KernelMemo, ConcurrentTraceBuildsMatchSerialBuilds)
{
    const std::vector<GateLibrary> libs = techLibraries();
    const auto &benches = exp::paperBenchmarks();
    const std::size_t n = libs.size() * benches.size();

    // Cold memo (this is the first test in the file to build a
    // trace): eight threads race to fill it.
    constexpr int kThreads = 8;
    std::vector<std::vector<Trace>> parallel(kThreads,
                                             std::vector<Trace>(n));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < n; ++i) {
                parallel[t][i] = exp::traceFor(
                    libs[i / benches.size()], benches[i % benches.size()]);
            }
        });
    }
    for (std::thread &th : threads) {
        th.join();
    }

    for (std::size_t i = 0; i < n; ++i) {
        const Trace serial = exp::traceFor(libs[i / benches.size()],
                                           benches[i % benches.size()]);
        for (int t = 0; t < kThreads; ++t) {
            expectSameTrace(parallel[t][i], serial,
                            benches[i % benches.size()].name);
        }
    }
}

TEST(KernelMemo, PaperTracesArePinned)
{
    // Digests of the traces the mapping produced when every kernel
    // was compiled afresh per call; no gate library changes them.
    struct Pinned
    {
        const char *bench;
        std::size_t blocks;
        std::uint64_t insts;
        std::uint64_t digest;
    };
    const Pinned pinned[] = {
        {"SVM MNIST", 107, 611459, 0xc65a69bba421a71bull},
        {"SVM MNIST (Bin)", 107, 85647, 0xf352ec45c5266f11ull},
        {"SVM HAR", 93, 268403, 0x6d797498047d5dd7ull},
        {"SVM ADULT", 93, 79144, 0x1e3810dc8c14f073ull},
        {"BNN FINN MNIST", 80, 55274, 0x3f7d3daae4c439f3ull},
        {"BNN FP-BNN MNIST", 80, 122492, 0x70f0522f580e0e5bull},
    };
    const auto &benches = exp::paperBenchmarks();
    ASSERT_EQ(benches.size(), std::size(pinned));
    for (const GateLibrary &lib : memoLibraries()) {
        for (std::size_t i = 0; i < benches.size(); ++i) {
            const Trace t = exp::traceFor(lib, benches[i]);
            EXPECT_EQ(benches[i].name, pinned[i].bench);
            EXPECT_EQ(t.blocks.size(), pinned[i].blocks)
                << pinned[i].bench;
            EXPECT_EQ(t.totalInstructions(), pinned[i].insts)
                << pinned[i].bench;
            EXPECT_EQ(traceDigest(t), pinned[i].digest)
                << pinned[i].bench << " on " << lib.config().name();
        }
    }
}

TEST(KernelMemo, MemoizedMixEqualsFreshCompileOnEveryLibrary)
{
    for (const GateLibrary &lib : techLibraries()) {
        for (const exp::Benchmark &bench : exp::paperBenchmarks()) {
            exp::traceFor(lib, bench);
        }
    }
    const std::vector<KernelSpec> specs = kernelMixSpecs();
    using Kind = KernelSpec::Kind;
    for (Kind kind : {Kind::kAndPopcount, Kind::kMac, Kind::kAdd,
                      Kind::kSquare, Kind::kMulSigned,
                      Kind::kXnorPopcount, Kind::kSub}) {
        EXPECT_TRUE(std::any_of(specs.begin(), specs.end(),
                                [&](const KernelSpec &s) {
                                    return s.kind == kind;
                                }))
            << "paper benchmarks use kind " << static_cast<int>(kind);
    }

    // Two interleaved visiting orders, so a lookup can be served by
    // an entry another library filled.
    const std::vector<GateLibrary> libs = memoLibraries();
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t si = 0; si < specs.size(); ++si) {
            const KernelSpec &spec =
                specs[pass == 0 ? si : specs.size() - 1 - si];
            for (std::size_t li = 0; li < libs.size(); ++li) {
                const GateLibrary &lib =
                    libs[pass == 0 ? li : libs.size() - 1 - li];
                EXPECT_EQ(kernelMix(lib, spec),
                          measureKernelMix(lib, spec))
                    << "kind " << static_cast<int>(spec.kind) << " a "
                    << spec.a << " b " << spec.b << " on "
                    << lib.config().name();
            }
        }
    }
}

TEST(KernelMemo, TallTilesBuildBnnAndBinarizedSvmTraces)
{
    // Kernels compile into a tile of the workload's own height, so
    // the wider popcounts of tall tiles fit.
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    const auto &benches = exp::paperBenchmarks();
    const auto bin = std::find_if(
        benches.begin(), benches.end(), [](const exp::Benchmark &b) {
            return b.kind == exp::WorkloadKind::Svm &&
                   b.svm.inputBits == 1;
        });
    ASSERT_NE(bin, benches.end());
    for (unsigned rows : {2048u, 4096u}) {
        MouseShape shape;
        shape.tileRows = rows;
        shape.numDataTiles = 64;

        MappingInfo bnn_info;
        const Trace bnn =
            buildBnnTrace(lib, finnShape(), shape, &bnn_info);
        EXPECT_EQ(bnn_info.elementsPerColumn, (rows - 64) / 3);
        EXPECT_GT(bnn.totalInstructions(), 0u);

        MappingInfo svm_info;
        const Trace svm = buildSvmTrace(lib, bin->svm, shape, &svm_info);
        EXPECT_EQ(svm_info.elementsPerColumn,
                  std::min((rows - 72) / 3, bin->svm.dim));
        EXPECT_GT(svm.totalInstructions(), 0u);

        const KernelSpec mac{KernelSpec::Kind::kXnorPopcount,
                             bnn_info.elementsPerColumn, 0, rows};
        EXPECT_EQ(kernelMix(lib, mac), measureKernelMix(lib, mac));
    }
}

// ---------------------------------------------------------------------
// End-to-end: the compiled kernel equals software inference, bit for
// bit, on the functional array.
// ---------------------------------------------------------------------

TEST(SvmOnArray, SquaredDotMatchesSoftwareExactly)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    ArrayConfig cfg;
    cfg.tileRows = 512;
    cfg.tileCols = 4;
    cfg.numDataTiles = 1;
    cfg.numInstructionTiles = 4096;

    // 4 support vectors (one per column), 6 elements, 4-bit features.
    constexpr unsigned dim = 6;
    constexpr unsigned input_bits = 4;
    constexpr unsigned acc_bits = 12;
    const RowAddr sv_base = 0;
    const RowAddr x_base =
        static_cast<RowAddr>(dim * 2 * input_bits);
    const unsigned first_free = 2 * dim * 2 * input_bits + 8;

    KernelBuilder kb(lib, cfg, 0, first_free);
    kb.activate(0, 3);
    Word square;
    buildSmallSvmKernel(kb, sv_base, x_base, dim, input_bits,
                        acc_bits, square);
    const Program prog = kb.finish();

    // Random SVs and input.
    Rng rng(2020);
    Features x(dim);
    for (auto &v : x) {
        v = static_cast<std::uint8_t>(rng.below(16));
    }
    std::vector<Features> svs(4, Features(dim));
    for (auto &sv : svs) {
        for (auto &v : sv) {
            v = static_cast<std::uint8_t>(rng.below(16));
        }
    }

    TileGrid grid(cfg, lib);
    for (ColAddr c = 0; c < 4; ++c) {
        for (unsigned e = 0; e < dim; ++e) {
            for (unsigned b = 0; b < input_bits; ++b) {
                grid.tile(0).setBit(
                    static_cast<RowAddr>(sv_base +
                                         e * 2 * input_bits + 2 * b),
                    c, (svs[c][e] >> b) & 1);
                grid.tile(0).setBit(
                    static_cast<RowAddr>(x_base +
                                         e * 2 * input_bits + 2 * b),
                    c, (x[e] >> b) & 1);
            }
        }
    }

    InstructionMemory imem(cfg, lib);
    imem.load(prog.encode());
    EnergyModel energy(lib);
    Controller ctrl(grid, imem, energy);
    while (!ctrl.halted()) {
        ctrl.step();
    }

    for (ColAddr c = 0; c < 4; ++c) {
        std::int64_t hw = 0;
        for (std::size_t i = 0; i < square.size(); ++i) {
            hw |= static_cast<std::int64_t>(
                      grid.tile(0).bit(square[i].row, c))
                  << i;
        }
        const std::int64_t d = dot(svs[c], x);
        const std::int64_t expect =
            (d * d) &
            ((1ll << static_cast<int>(square.size())) - 1);
        EXPECT_EQ(hw, expect) << "support vector " << c;
    }
}

} // namespace
} // namespace mouse
