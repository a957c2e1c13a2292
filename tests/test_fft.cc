/**
 * @file
 * Tests for the FFT extension: the software fixed-point reference,
 * bit-exact array execution of the compiled butterfly, and the
 * FFT trace mapping.
 */

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compile/fft.hh"
#include "controller/controller.hh"

namespace mouse
{
namespace
{

TEST(FixedFft, ImpulseGivesFlatSpectrum)
{
    constexpr unsigned bits = 16;
    std::vector<FixedComplex> x(8);
    x[0] = {1000, 0};
    const auto spectrum = fixedFft(x, bits);
    // Per-stage 1/2 scaling divides by N=8; twiddle quantization
    // costs a couple of LSBs.
    for (const FixedComplex &v : spectrum) {
        EXPECT_NEAR(static_cast<double>(v.re), 125.0, 3.0);
        EXPECT_NEAR(static_cast<double>(v.im), 0.0, 3.0);
    }
}

TEST(FixedFft, SingleToneLandsInOneBin)
{
    constexpr unsigned bits = 16;
    constexpr unsigned n = 64;
    std::vector<FixedComplex> x(n);
    const double amp = 4000.0;
    for (unsigned i = 0; i < n; ++i) {
        x[i].re = static_cast<std::int64_t>(std::lround(
            amp * std::cos(2.0 * std::numbers::pi * 5.0 * i / n)));
        x[i].im = 0;
    }
    const auto spectrum = fixedFft(x, bits);
    // Energy concentrates in bins 5 and n-5.
    double peak = 0.0;
    double rest = 0.0;
    for (unsigned k = 0; k < n; ++k) {
        const double mag =
            std::hypot(static_cast<double>(spectrum[k].re),
                       static_cast<double>(spectrum[k].im));
        if (k == 5 || k == n - 5) {
            peak += mag;
        } else {
            rest += mag;
        }
    }
    EXPECT_GT(peak, 10.0 * rest);
}

TEST(FixedButterfly, MatchesComplexArithmetic)
{
    constexpr unsigned bits = 16;
    // w = 1.0 (Q15: 32767) -> top = a + b, bottom = a - b (up to the
    // renormalization rounding of +-1 LSB per product).
    FixedComplex a{1000, -2000};
    FixedComplex b{300, 450};
    FixedComplex w{32767, 0};
    FixedComplex top;
    FixedComplex bottom;
    fixedButterfly(a, b, w, bits, top, bottom);
    // Halved by the per-stage scaling.
    EXPECT_NEAR(static_cast<double>(top.re), 650.0, 2.0);
    EXPECT_NEAR(static_cast<double>(top.im), -775.0, 2.0);
    EXPECT_NEAR(static_cast<double>(bottom.re), 350.0, 2.0);
    EXPECT_NEAR(static_cast<double>(bottom.im), -1225.0, 2.0);
}

TEST(ButterflyOnArray, BitExactAgainstSoftware)
{
    constexpr unsigned bits = 8;  // keep the functional run fast
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    ArrayConfig cfg;
    cfg.tileRows = 512;
    cfg.tileCols = 4;
    cfg.numDataTiles = 1;
    cfg.numInstructionTiles = 8192;

    ButterflyLayout layout;
    layout.aRe = 0;
    layout.aIm = 2 * bits;
    layout.bRe = 4 * bits;
    layout.bIm = 6 * bits;
    layout.wRe = 8 * bits;
    layout.wIm = 10 * bits;

    KernelBuilder kb(lib, cfg, 0, 12 * 2 * bits);
    kb.activate(0, 3);
    const ButterflyResult out =
        buildButterflyKernel(kb, layout, bits);
    const Program prog = kb.finish();

    // Four random butterflies, one per column.
    Rng rng(606);
    struct Case
    {
        FixedComplex a, b, w;
    };
    std::vector<Case> cases(4);
    TileGrid grid(cfg, lib);
    auto seed_word = [&](RowAddr base, std::int64_t value,
                         ColAddr col) {
        for (unsigned i = 0; i < bits; ++i) {
            grid.tile(0).setBit(
                static_cast<RowAddr>(base + 2 * i), col,
                static_cast<Bit>((static_cast<std::uint64_t>(value) >>
                                  i) &
                                 1));
        }
    };
    for (ColAddr c = 0; c < 4; ++c) {
        auto val = [&] {
            return rng.between(-(1 << (bits - 1)),
                               (1 << (bits - 1)) - 1);
        };
        cases[c] = {{val(), val()}, {val(), val()}, {val(), val()}};
        seed_word(layout.aRe, cases[c].a.re, c);
        seed_word(layout.aIm, cases[c].a.im, c);
        seed_word(layout.bRe, cases[c].b.re, c);
        seed_word(layout.bIm, cases[c].b.im, c);
        seed_word(layout.wRe, cases[c].w.re, c);
        seed_word(layout.wIm, cases[c].w.im, c);
    }

    InstructionMemory imem(cfg, lib);
    imem.load(prog.encode());
    EnergyModel energy(lib);
    Controller ctrl(grid, imem, energy);
    while (!ctrl.halted()) {
        ctrl.step();
    }

    auto read_word = [&](const Word &w, ColAddr col) {
        std::int64_t v = 0;
        for (std::size_t i = 0; i < w.size(); ++i) {
            v |= static_cast<std::int64_t>(
                     grid.tile(0).bit(w[i].row, col))
                 << i;
        }
        if ((v >> (w.size() - 1)) & 1) {
            v -= 1ll << w.size();
        }
        return v;
    };
    for (ColAddr c = 0; c < 4; ++c) {
        FixedComplex top;
        FixedComplex bottom;
        fixedButterfly(cases[c].a, cases[c].b, cases[c].w, bits, top,
                       bottom);
        EXPECT_EQ(read_word(out.topRe, c), top.re) << "col " << c;
        EXPECT_EQ(read_word(out.topIm, c), top.im) << "col " << c;
        EXPECT_EQ(read_word(out.botRe, c), bottom.re) << "col " << c;
        EXPECT_EQ(read_word(out.botIm, c), bottom.im) << "col " << c;
    }
}

TEST(FftTrace, ScalesWithPointsAndColumns)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    FftWorkload small{256, 16};
    FftWorkload big{1024, 16};
    FftMappingInfo info_small;
    FftMappingInfo info_big;
    const Trace t_small =
        buildFftTrace(lib, small, 1 << 16, 1024, &info_small);
    const Trace t_big =
        buildFftTrace(lib, big, 1 << 16, 1024, &info_big);
    EXPECT_EQ(info_small.stages, 8u);
    EXPECT_EQ(info_big.stages, 10u);
    EXPECT_EQ(info_big.butterfliesPerStage, 512u);
    EXPECT_GT(t_big.totalInstructions(),
              t_small.totalInstructions());

    // Column starvation forces sequential chunks.
    FftMappingInfo starved;
    const Trace t_starved =
        buildFftTrace(lib, big, 64, 64, &starved);
    EXPECT_EQ(starved.peakActiveColumns, 64u);
    EXPECT_GT(t_starved.totalInstructions(),
              t_big.totalInstructions());
}

} // namespace
} // namespace mouse
