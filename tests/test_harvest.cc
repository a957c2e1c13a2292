/**
 * @file
 * Tests for the energy-harvesting environment: capacitor physics,
 * power sources, the switched-capacitor converter's rail selection
 * (paper Sections IV-C and VIII), and the scenario library — trace
 * JSON round-trips, the embedded corpus, platform presets, and
 * SourceSpec validation (docs/HARVESTING.md).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "harvest/capacitor.hh"
#include "harvest/converter.hh"
#include "harvest/platform.hh"
#include "harvest/power_source.hh"
#include "harvest/power_trace.hh"
#include "harvest/source_spec.hh"
#include "harvest/trace_corpus.hh"
#include "logic/gate_library.hh"

namespace mouse
{
namespace
{

TEST(Capacitor, EnergyFollowsHalfCVSquared)
{
    Capacitor cap(100e-6, 0.34);
    EXPECT_NEAR(cap.energy(), 0.5 * 100e-6 * 0.34 * 0.34, 1e-12);
}

TEST(Capacitor, EnergyAboveFloor)
{
    Capacitor cap(100e-6, 0.34);
    const Joules usable = cap.energyAbove(0.32);
    EXPECT_NEAR(usable, 0.5 * 100e-6 * (0.34 * 0.34 - 0.32 * 0.32),
                1e-12);
    EXPECT_EQ(Capacitor(100e-6, 0.30).energyAbove(0.32), 0.0);
}

TEST(Capacitor, PaperBurstEnergies)
{
    // Modern window: 100 uF, 320..340 mV -> 0.66 uJ per burst.
    Capacitor modern(100e-6, 0.340);
    EXPECT_NEAR(modern.energyAbove(0.320), 0.66e-6, 0.01e-6);
    // Projected window: 10 uF, 100..120 mV -> 22 nJ per burst.
    Capacitor projected(10e-6, 0.120);
    EXPECT_NEAR(projected.energyAbove(0.100), 22e-9, 0.5e-9);
}

TEST(Capacitor, ChargeAndTimeToChargeAgree)
{
    Capacitor cap(10e-6, 0.0);
    const Seconds t = cap.energyTo(0.12) / 60e-6;
    cap.charge(60e-6, t);
    EXPECT_NEAR(cap.voltage(), 0.12, 1e-9);
    EXPECT_EQ(cap.energyTo(0.10), 0.0);
}

TEST(Capacitor, DrawReducesVoltageAndClampsAtZero)
{
    Capacitor cap(10e-6, 0.12);
    cap.draw(cap.energy() / 2);
    EXPECT_NEAR(cap.voltage(), 0.12 / std::sqrt(2.0), 1e-9);
    cap.draw(1.0);  // far more than stored
    EXPECT_EQ(cap.voltage(), 0.0);
}

TEST(PowerSource, ConstantIsConstant)
{
    ConstantPowerSource src(5e-3);
    EXPECT_EQ(src.power(0.0), 5e-3);
    EXPECT_EQ(src.power(1e6), 5e-3);
}

TEST(PowerSource, TraceCyclesThroughSegments)
{
    TracePowerSource src({{1.0, 100e-6}, {2.0, 10e-6}});
    EXPECT_EQ(src.period(), 3.0);
    EXPECT_EQ(src.power(0.5), 100e-6);
    EXPECT_EQ(src.power(1.5), 10e-6);
    EXPECT_EQ(src.power(2.9), 10e-6);
    EXPECT_EQ(src.power(3.5), 100e-6);  // wraps around
}

TEST(PowerSource, BinarySearchMatchesReferenceScanBitForBit)
{
    // The O(log n) threshold lookup must agree with the historical
    // subtract-and-compare scan for EVERY phase, including ones where
    // accumulated subtraction error makes the scan disagree with
    // exact cumulative sums.  Re-run the scan here as the oracle.
    Rng rng(12345);
    for (int round = 0; round < 20; ++round) {
        std::vector<TracePowerSource::Segment> segs;
        const std::size_t n = 1 + rng.below(7);
        for (std::size_t i = 0; i < n; ++i) {
            segs.push_back({1e-4 + rng.uniform() * 2.0,
                            rng.uniform() * 1e-3});
        }
        const TracePowerSource src(segs);

        auto scanPower = [&](Seconds t) {
            Seconds phase = std::fmod(t, src.period());
            for (const auto &s : segs) {
                if (phase < s.duration) {
                    return s.power;
                }
                phase -= s.duration;
            }
            return segs.back().power;
        };

        // Dense sweep plus adversarial phases hugging each boundary.
        std::vector<Seconds> probes;
        for (int i = 0; i < 400; ++i) {
            probes.push_back(rng.uniform() * 3.0 * src.period());
        }
        Seconds edge = 0.0;
        for (const auto &s : segs) {
            edge += s.duration;
            probes.push_back(std::nextafter(edge, 0.0));
            probes.push_back(edge);
            probes.push_back(std::nextafter(edge, 1e30));
        }
        for (Seconds t : probes) {
            ASSERT_EQ(src.power(t), scanPower(t)) << "t=" << t;
        }
    }
}

/**
 * Reference for TracePowerSource::timeToHarvest: march time forward
 * in fixed steps of at most @p h, cutting each step at the next
 * segment boundary so a step sees one power, and solve only the last
 * step.  No whole-period skip and no per-segment closed form.
 */
Seconds
steppedTimeToHarvest(const std::vector<TracePowerSource::Segment> &segs,
                     Joules energy, Seconds t0, double scale,
                     Seconds h)
{
    Seconds period = 0.0;
    for (const auto &s : segs) {
        period += s.duration;
    }
    std::size_t i = 0;
    Seconds into = std::fmod(t0, period);
    while (into >= segs[i].duration) {
        into -= segs[i].duration;
        i = (i + 1) % segs.size();
    }
    Seconds rest = segs[i].duration - into;
    Seconds t = 0.0;
    Joules got = 0.0;
    for (;;) {
        const Seconds dt = std::min(h, rest);
        const Watts p = segs[i].power * scale;
        if (got + p * dt >= energy) {
            return t + (energy - got) / p;
        }
        got += p * dt;
        t += dt;
        rest -= dt;
        if (rest <= 0.0) {
            i = (i + 1) % segs.size();
            rest = segs[i].duration;
        }
    }
}

TEST(PowerSource, TimeToHarvestMatchesSteppedReference)
{
    std::vector<std::vector<TracePowerSource::Segment>> sources = {
        TracePowerSource::square(0.01, 0.3, 200e-6).segments()};
    for (const std::string &name : corpusTraceNames()) {
        sources.push_back(corpusTrace(name)->segments);
    }
    Rng rng(2024);
    for (const auto &segs : sources) {
        const TracePowerSource src(segs);
        const Seconds period = src.period();
        Joules perPeriod = 0.0;
        Joules smallest = 1e30;
        std::vector<Seconds> starts;
        Seconds edge = 0.0;
        for (const auto &s : segs) {
            perPeriod += s.duration * s.power;
            if (s.power > 0.0) {
                smallest = std::min(smallest, s.duration * s.power);
            }
            starts.push_back(edge);  // exactly on a boundary
            starts.push_back(7.0 * period + edge);
            edge += s.duration;
        }
        for (int k = 0; k < 4; ++k) {
            starts.push_back(rng.uniform() * 3.0 * period);
        }
        starts.push_back(1e4 * period + rng.uniform() * period);
        starts.push_back(3.7e5 * period);
        for (const double scale : {1.0, 0.85}) {
            const std::vector<Joules> energies = {
                1e-3 * smallest, 0.37 * smallest, 0.9 * perPeriod,
                (1.0 + rng.uniform()) * perPeriod, 3.3 * perPeriod,
                47.5 * perPeriod};
            for (const Seconds t0 : starts) {
                for (const Joules e : energies) {
                    const Joules energy = e * scale;
                    const Seconds want = steppedTimeToHarvest(
                        segs, energy, t0, scale, period / 512.0);
                    ASSERT_NEAR(src.timeToHarvest(energy, t0, scale),
                                want, 1e-3 * want)
                        << "t0=" << t0 << " energy=" << energy
                        << " scale=" << scale;
                }
            }
        }
    }
}

TEST(PowerSource, SquareTimeToHarvestMatchesBruteForce)
{
    // Plain fixed 100 ns steps with no boundary handling, as a check
    // that does not share the reference's segment walk.
    const TracePowerSource src =
        TracePowerSource::square(0.01, 0.3, 200e-6);
    const Joules perPeriod = 0.003 * 200e-6;
    const Seconds h = 1e-7;
    for (const Seconds t0 : {0.0, 0.0042, 0.0123}) {
        for (const double periods : {0.37, 1.7, 2.45}) {
            const Joules energy = periods * perPeriod;
            Joules got = 0.0;
            Seconds t = t0;
            while (got + src.power(t) * h < energy) {
                got += src.power(t) * h;
                t += h;
            }
            const Seconds want = t - t0 + (energy - got) / src.power(t);
            EXPECT_NEAR(src.timeToHarvest(energy, t0, 1.0), want,
                        1e-3 * want)
                << "t0=" << t0 << " periods=" << periods;
        }
    }
}

TEST(PowerSource, NextChangeWalksEverySegmentBoundary)
{
    // Re-querying at the returned time must move on by one segment
    // even where rounding lands it a hair short of the boundary.
    const TracePowerSource src =
        TracePowerSource::square(0.01, 0.3, 200e-6);
    for (const Seconds start : {0.0, 0.0029, 0.003, 1234.5678}) {
        Seconds prev = src.nextChange(start);
        for (int k = 0; k < 2000; ++k) {
            const Seconds next = src.nextChange(prev);
            const Seconds gap = next - prev;
            ASSERT_TRUE(std::fabs(gap - 0.003) < 1e-9 ||
                        std::fabs(gap - 0.007) < 1e-9)
                << "start=" << start << " at=" << prev
                << " gap=" << gap;
            ASSERT_NE(src.power(prev + gap / 2),
                      src.power(next + 1e-6));
            prev = next;
        }
    }
}

TEST(PowerSource, ConstantTimeToHarvestIsTheOldClosedForm)
{
    // Bit for bit what the MOUSE recharge and the MCU model computed
    // for constant sources before timeToHarvest existed.
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        const Watts p = 1e-6 + rng.uniform() * 5e-3;
        const ConstantPowerSource src(p);
        const Farads c = 1e-9 + rng.uniform() * 100e-6;
        const Volts v0 = rng.uniform() * 0.3;
        const Volts v1 = v0 + rng.uniform() * 0.3;
        const Capacitor cap(c, v0);
        ASSERT_EQ(src.timeToHarvest(cap.energyTo(v1),
                                    rng.uniform() * 1e3, 1.0),
                  0.5 * c * (v1 * v1 - v0 * v0) / p);
        const Joules e = rng.uniform() * 1e-3;
        const double eff = 0.5 + 0.5 * rng.uniform();
        ASSERT_EQ(src.timeToHarvest(e, 0.0, eff), e / (p * eff));
    }
}

TEST(TracePowerSource, PhaseMatchesFmodBitForBit)
{
    // phaseOf replaces std::fmod in every query; it must return the
    // same bits for the square wave and each corpus period: random
    // times up to a day, the +-4-ulp neighbours of whole periods
    // (where the quotient rounds across an integer), bit patterns
    // just inside the 2^52-period limit, and the inputs that fall
    // back to fmod (zeros, negatives, huge and non-finite times).
    std::vector<TracePowerSource> sources{
        TracePowerSource::square(0.01, 0.3, 1e-3)};
    for (const PowerTrace &t : powerTraceCorpus()) {
        sources.emplace_back(t.segments);
    }
    ASSERT_EQ(sources.size(), 4u);
    const auto bits = [](double v) {
        std::uint64_t b = 0;
        std::memcpy(&b, &v, sizeof(b));
        return b;
    };
    Rng rng(7);
    std::uint64_t checked = 0;
    for (const TracePowerSource &src : sources) {
        const double period = src.period();
        const auto expectSame = [&](double t) {
            ASSERT_EQ(bits(src.phaseOf(t)), bits(std::fmod(t, period)))
                << "t=" << t << " period=" << period;
            ++checked;
        };
        for (int i = 0; i < 100000; ++i) {
            expectSame(rng.uniform(0.0, 86400.0));
            expectSame(std::exp2(rng.uniform(-40.0, 60.0)));
        }
        for (int i = 0; i < 20000; ++i) {
            const double k = std::floor(rng.uniform(0.0, 1e7));
            double t = k * period;
            for (int u = 0; u < 4; ++u) {
                t = std::nextafter(t, 0.0);
            }
            for (int u = 0; u <= 8; ++u) {
                expectSame(t);
                t = std::nextafter(t, HUGE_VAL);
            }
        }
        const double limit = 0x1p52 * period;
        for (double t = limit, u = 0; u < 8; ++u) {
            expectSame(t);
            t = std::nextafter(t, 0.0);
        }
        for (const double t :
             {0.0, -0.0, -1.0, -period, -1e300, 1e300, limit * 2.0,
              std::numeric_limits<double>::denorm_min(),
              std::numeric_limits<double>::infinity(),
              -std::numeric_limits<double>::infinity(),
              std::numeric_limits<double>::quiet_NaN()}) {
            expectSame(t);
        }
    }
    EXPECT_GT(checked, 1000000u);
}

TEST(PowerSource, TraceWithoutEnergyIsRejectedAtConstruction)
{
    EXPECT_DEATH(TracePowerSource({{1.0, 0.0}, {2.0, 0.0}}),
                 "no energy");
}

TEST(PowerTrace, JsonRoundTripPreservesEverySegmentBit)
{
    PowerTrace trace;
    trace.name = "unit \"probe\"";
    trace.segments = {{0.125, 3.0000000000000004e-05},
                      {2.5, 1e-12},
                      {0.7071067811865476, 5e-3}};
    json::Error err;
    const auto back = parsePowerTrace(trace.toJson(), &err);
    ASSERT_TRUE(back.has_value()) << err.message;
    EXPECT_EQ(back->name, trace.name);
    ASSERT_EQ(back->segments.size(), trace.segments.size());
    for (std::size_t i = 0; i < trace.segments.size(); ++i) {
        EXPECT_EQ(back->segments[i], trace.segments[i]);
    }
    EXPECT_EQ(back->period(), trace.period());
    EXPECT_EQ(back->meanPower(), trace.meanPower());
}

TEST(PowerTrace, ParserRejectsWithLineNumbers)
{
    json::Error err;
    EXPECT_FALSE(parsePowerTrace("{\"segments\":[]}", &err));
    EXPECT_EQ(err.line, 1u);

    // Wrong version, on line 2 of a pretty-printed document.
    EXPECT_FALSE(parsePowerTrace(
        // mouse-lint: allow(schema-constants) -- malformed-input
        // fixture: a wrong inline version is the point.
        "{\n\"trace_schema\": 99,\n\"segments\":[]}", &err));
    EXPECT_EQ(err.line, 2u);
    EXPECT_NE(err.message.find("99"), std::string::npos);

    // A segment missing its power, on its own line.
    const auto bad = parsePowerTrace(
        // mouse-lint: allow(schema-constants) -- malformed-input
        // fixture with a valid header and a broken segment.
        "{\"trace_schema\":1,\"segments\":[\n{\"duration_s\":1}\n]}",
        &err);
    EXPECT_FALSE(bad);
    EXPECT_EQ(err.line, 2u);

    EXPECT_FALSE(parsePowerTrace("not json at all", &err));
    EXPECT_FALSE(parsePowerTrace(
        // mouse-lint: allow(schema-constants) -- malformed-input
        // fixture: negative duration behind a valid header.
        "{\"trace_schema\":1,\"segments\":[{\"duration_s\":-1,"
        "\"power_w\":1e-6}]}",
        &err));
}

TEST(TraceCorpus, ShipsNamedValidatedTraces)
{
    const auto names = corpusTraceNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "solar-day-night");
    EXPECT_EQ(names[1], "rf-bursty");
    EXPECT_EQ(names[2], "piezo-impulse");
    for (const std::string &name : names) {
        const PowerTrace *t = corpusTrace(name);
        ASSERT_NE(t, nullptr);
        EXPECT_EQ(t->name, name);
        EXPECT_GT(t->period(), 0.0);
        EXPECT_GT(t->meanPower(), 0.0);
        // Round-trip: the shipped JSON parses back to itself.
        const auto back = parsePowerTrace(t->toJson());
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->segments, t->segments);
    }
    EXPECT_EQ(corpusTrace("fusion-reactor"), nullptr);
}

TEST(Platform, CatalogNamesDatasheetPresets)
{
    ASSERT_EQ(platformNames().size(), 3u);
    const Platform *mementos = platformByName("mementos");
    ASSERT_NE(mementos, nullptr);
    EXPECT_EQ(mementos->capacitance, 10e-6);
    const Platform *nvp = platformByName("nvp");
    ASSERT_NE(nvp, nullptr);
    EXPECT_GT(nvp->converterEfficiency,
              platformByName("batteryless")->converterEfficiency);
    EXPECT_EQ(platformByName("unknown-board"), nullptr);
}

TEST(SourceSpec, DefaultIsThePaperConstantModel)
{
    const SourceSpec def;
    EXPECT_EQ(def.kind, SourceKind::kConstant);
    EXPECT_TRUE(def.valid());
    EXPECT_EQ(def.constantPower, 60e-6);
    EXPECT_EQ(def.name(), "constant");
    EXPECT_EQ(def.meanPower(), 60e-6);
}

TEST(SourceSpec, ValidationNamesTheProblem)
{
    std::string why;
    EXPECT_FALSE(SourceSpec::constant(0.0).valid(&why));
    EXPECT_FALSE(why.empty());

    EXPECT_FALSE(
        SourceSpec::trace(std::vector<TracePowerSource::Segment>{})
            .valid(&why));

    // A trace that never delivers power can never charge.
    EXPECT_FALSE(SourceSpec::trace({{1.0, 0.0}, {2.0, 0.0}})
                     .valid(&why));
    EXPECT_NE(why.find("never delivers power"), std::string::npos);

    EXPECT_FALSE(SourceSpec::corpusTrace("marsdust").valid(&why));
    EXPECT_NE(why.find("solar-day-night"), std::string::npos);

    EXPECT_FALSE(SourceSpec::square(1.0, 1.5, 1e-3).valid(&why));
    EXPECT_FALSE(SourceSpec::square(0.0, 0.5, 1e-3).valid(&why));

    EXPECT_TRUE(SourceSpec::corpusTrace("rf-bursty").valid());
    EXPECT_TRUE(SourceSpec::square(0.01, 0.3, 200e-6).valid());
}

TEST(SourceSpec, MakeMaterializesTheDescribedSource)
{
    const auto constant = SourceSpec::constant(5e-3).make();
    EXPECT_EQ(constant->power(123.0), 5e-3);
    EXPECT_EQ(constant->nextChange(123.0),
              std::numeric_limits<Seconds>::infinity());

    const auto square = SourceSpec::square(0.01, 0.3, 200e-6).make();
    EXPECT_EQ(square->power(0.001), 200e-6);
    EXPECT_EQ(square->power(0.005), 0.0);
    // The period is the sum of the on and off segments, not the
    // requested value bit-for-bit.
    const auto *wave =
        dynamic_cast<const TracePowerSource *>(square.get());
    ASSERT_NE(wave, nullptr);
    EXPECT_DOUBLE_EQ(wave->period(), 0.01);

    const auto corpus = SourceSpec::corpusTrace("rf-bursty").make();
    const auto *trace =
        dynamic_cast<const TracePowerSource *>(corpus.get());
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->period(), corpusTrace("rf-bursty")->period());
}

TEST(Converter, PicksLowestSufficientRail)
{
    SwitchedCapConverter conv;
    // Buffer at 0.32 V: rails are 0.24, 0.32, 0.48, 0.56.
    auto rail = conv.railFor(0.30, 0.32);
    ASSERT_TRUE(rail.has_value());
    EXPECT_NEAR(*rail, 0.32, 1e-12);
    rail = conv.railFor(0.50, 0.32);
    ASSERT_TRUE(rail.has_value());
    EXPECT_NEAR(*rail, 0.56, 1e-12);
    EXPECT_FALSE(conv.railFor(0.60, 0.32).has_value());
}

TEST(Converter, CanSupplyChecksWindowBottom)
{
    SwitchedCapConverter conv;
    EXPECT_TRUE(conv.canSupply(0.5, 0.32));   // 1.75 * 0.32 = 0.56
    EXPECT_FALSE(conv.canSupply(0.57, 0.32));
}

TEST(Converter, EfficiencyScalesBufferDraw)
{
    SwitchedCapConverter lossy(0.5);
    EXPECT_DOUBLE_EQ(lossy.bufferEnergyFor(1e-6), 2e-6);
    SwitchedCapConverter ideal;
    EXPECT_DOUBLE_EQ(ideal.bufferEnergyFor(1e-6), 1e-6);
}

TEST(Converter, ExtendedRatiosReachHigherRails)
{
    const SwitchedCapConverter paper(1.0, paperConverterRatios());
    const SwitchedCapConverter ext(1.0, extendedConverterRatios());
    // 0.28 V from a 0.10 V buffer needs a 2.8x ratio.
    EXPECT_FALSE(paper.canSupply(0.28, 0.10));
    EXPECT_TRUE(ext.canSupply(0.28, 0.10));
    EXPECT_EQ(paper.ratios().size(), 4u);
    EXPECT_EQ(ext.ratios().size(), 6u);
}

TEST(Converter, RailCoverageOfSolvedOperatingPoints)
{
    // Section VIII claims the four ratios supply every required
    // voltage.  With our independently solved operating points this
    // holds for Modern STT and SHE; the projected-STT write (through
    // the 76 kOhm AP path) needs the extended ratio set — the
    // documented divergence of EXPERIMENTS.md.
    const SwitchedCapConverter paper(1.0, paperConverterRatios());
    const SwitchedCapConverter ext(1.0, extendedConverterRatios());

    auto all_covered = [](const GateLibrary &lib,
                          const SwitchedCapConverter &conv) {
        const Volts v_low = lib.config().capVoltageLow;
        for (GateType g : lib.feasibleGates()) {
            if (!conv.canSupply(lib.gate(g).voltage, v_low)) {
                return false;
            }
        }
        return conv.canSupply(lib.writeOp().voltage, v_low) &&
               conv.canSupply(lib.readOp().voltage, v_low);
    };

    const GateLibrary modern(makeDeviceConfig(TechConfig::ModernStt));
    const GateLibrary proj(makeDeviceConfig(TechConfig::ProjectedStt));
    const GateLibrary she(makeDeviceConfig(TechConfig::ProjectedShe));

    EXPECT_TRUE(all_covered(modern, paper));
    EXPECT_TRUE(all_covered(she, paper));
    EXPECT_FALSE(all_covered(proj, paper));  // the finding
    EXPECT_TRUE(all_covered(proj, ext));
    EXPECT_TRUE(all_covered(modern, ext));
}

} // namespace
} // namespace mouse
