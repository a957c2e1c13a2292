/**
 * @file
 * Energy-harvesting power sources.
 *
 * The paper's evaluation models the harvester as a constant power
 * source filling the buffer capacitor, swept from 60 uW (a 1 cm^2
 * body-heat thermal harvester) to 5 mW (the Powercast RF harvester
 * SONIC uses).  A piecewise trace source is provided for
 * fluctuating-environment experiments beyond the paper.
 */

#ifndef MOUSE_HARVEST_POWER_SOURCE_HH
#define MOUSE_HARVEST_POWER_SOURCE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mouse
{

/** Abstract harvester output-power model. */
class PowerSource
{
  public:
    virtual ~PowerSource() = default;

    /** Instantaneous harvested power at absolute time @p t. */
    virtual Watts power(Seconds t) const = 0;

    /** Exact (closed-form) seconds from absolute time @p t0 until
     *  the source has delivered @p energy joules, every watt derated
     *  by @p scale (a converter efficiency in (0, 1]). */
    virtual Seconds timeToHarvest(Joules energy, Seconds t0,
                                  double scale) const = 0;

    /** First time after the argument that the output changes. */
    virtual Seconds
    nextChange(Seconds) const
    {
        return std::numeric_limits<Seconds>::infinity();
    }
};

/** Constant output (the paper's model). */
class ConstantPowerSource : public PowerSource
{
  public:
    explicit ConstantPowerSource(Watts p) : p_(p)
    {
        mouse_assert(p > 0.0, "non-positive source power");
    }

    Watts power(Seconds) const override { return p_; }

    Seconds
    timeToHarvest(Joules energy, Seconds, double scale) const override
    {
        return energy / (p_ * scale);
    }

  private:
    Watts p_;
};

/** Piecewise-constant trace, cycling through (duration, power)
 *  segments; models clouds over a solar cell etc.
 *
 *  Queries are O(log n): construction precomputes, per segment
 *  boundary, the smallest representable phase that lands past the
 *  boundary under the reference subtract-and-compare scan, and
 *  power() binary-searches those thresholds.  Because each threshold
 *  is found by bisecting the scan itself over the ordered bit
 *  patterns of the phase doubles, the selected segment — and thus
 *  the returned power — is bit-identical to the former linear scan
 *  for every input, including phases where accumulated floating-
 *  point subtraction error made the scan disagree with exact
 *  cumulative sums.  timeToHarvest() is O(n) however long the
 *  charge: one floor skips whole periods. */
class TracePowerSource : public PowerSource
{
  public:
    struct Segment
    {
        Seconds duration;
        Watts power;

        bool operator==(const Segment &other) const = default;
    };

    explicit TracePowerSource(std::vector<Segment> segments)
        : segments_(std::move(segments))
    {
        mouse_assert(!segments_.empty(), "empty power trace");
        for (const Segment &s : segments_) {
            mouse_assert(s.duration > 0.0, "non-positive segment");
            period_ += s.duration;
            ends_.push_back(period_);
            periodEnergy_ += s.duration * s.power;
        }
        // The whole-period skip divides by this.
        mouse_assert(periodEnergy_ > 0.0,
                     "trace delivers no energy per period");
        buildThresholds();
    }

    Watts
    power(Seconds t) const override
    {
        const Seconds phase = phaseOf(t);
        const std::size_t idx = static_cast<std::size_t>(
            std::upper_bound(thresholds_.begin(), thresholds_.end(),
                             phase) -
            thresholds_.begin());
        return segments_[idx].power;
    }

    Seconds
    timeToHarvest(Joules energy, Seconds t0,
                  double scale) const override
    {
        mouse_assert(scale > 0.0, "non-positive harvest scale");
        if (energy <= 0.0) {
            return 0.0;
        }
        // Every whole period delivers the same energy: skip all but
        // the last one or two, then walk segments from t0.
        const Joules perPeriod = periodEnergy_ * scale;
        const double whole =
            std::max(std::floor(energy / perPeriod) - 1.0, 0.0);
        energy -= whole * perPeriod;
        Seconds t = whole * period_;
        const Seconds phase = phaseOf(t0);
        std::size_t i = static_cast<std::size_t>(
            std::upper_bound(ends_.begin(), ends_.end(), phase) -
            ends_.begin());
        for (Seconds span = ends_[i] - phase;;
             span = segments_[i].duration) {
            const Watts p = segments_[i].power * scale;
            if (p * span >= energy) {
                return t + energy / p;
            }
            energy -= p * span;
            t += span;
            i = i + 1 == segments_.size() ? 0 : i + 1;
        }
    }

    Seconds
    nextChange(Seconds t) const override
    {
        // A boundary within rounding of t counts as crossed, so a
        // call at the returned time always moves on.
        const Seconds phase = phaseOf(t);
        const auto it =
            std::upper_bound(ends_.begin(), ends_.end(),
                             phase + 1e-15 * std::max(t, period_));
        return t - phase +
               (it == ends_.end() ? period_ + ends_.front() : *it);
    }

    Seconds period() const { return period_; }

    /**
     * Phase of @p t within the period: std::fmod(t, period()), bit
     * for bit, without fmod's per-bit loop:
     * q = floor(t / period) is off by at most one, one fused
     * multiply-add then gives the remainder exactly (it is
     * representable once q is exact), and one correction of q fixes
     * the rare rounding of the quotient.  Negative, non-finite and
     * huge times (q not exact in a double) and zeros (the sign of
     * -0) take std::fmod.
     */
    Seconds
    phaseOf(Seconds t) const
    {
        if (!(t > 0.0 && t < 0x1p52 * period_)) {
            return std::fmod(t, period_);
        }
        double q = std::floor(t / period_);
        double r = std::fma(-q, period_, t);
        if (r < 0.0) {
            q -= 1.0;
            r = std::fma(-q, period_, t);
        } else if (r >= period_) {
            q += 1.0;
            r = std::fma(-q, period_, t);
        }
        return r;
    }

    const std::vector<Segment> &segments() const { return segments_; }

    /**
     * Square wave: @p peak watts for @p duty of each @p period, then
     * zero.  The canonical outage-heavy source for brownout-
     * attribution experiments — every off phase starves the buffer,
     * so runs longer than duty*period are guaranteed outages.
     */
    static TracePowerSource
    square(Seconds period, double duty, Watts peak)
    {
        mouse_assert(period > 0.0, "non-positive square period");
        mouse_assert(duty > 0.0 && duty < 1.0,
                     "square duty must be in (0, 1)");
        return TracePowerSource(
            {{period * duty, peak}, {period * (1.0 - duty), 0.0}});
    }

  private:
    /** The pre-threshold reference: subtract each duration in turn
     *  and select the first segment the remaining phase fits in,
     *  falling through to the last segment. */
    std::size_t
    scanIndex(Seconds phase) const
    {
        for (std::size_t i = 0; i < segments_.size(); ++i) {
            if (phase < segments_[i].duration) {
                return i;
            }
            phase -= segments_[i].duration;
        }
        return segments_.size() - 1;
    }

    static std::uint64_t
    phaseBits(Seconds v)
    {
        std::uint64_t b = 0;
        std::memcpy(&b, &v, sizeof(b));
        return b;
    }

    static Seconds
    phaseFromBits(std::uint64_t b)
    {
        Seconds v = 0.0;
        std::memcpy(&v, &b, sizeof(v));
        return v;
    }

    /** thresholds_[b-1] = smallest phase the scan maps to segment
     *  >= b.  scanIndex is monotone in the phase, and non-negative
     *  doubles order the same as their bit patterns, so each
     *  boundary is an integer bisection over phase bits with the
     *  scan as the oracle. */
    void
    buildThresholds()
    {
        thresholds_.reserve(segments_.size() - 1);
        for (std::size_t b = 1; b < segments_.size(); ++b) {
            std::uint64_t lo = phaseBits(0.0);
            std::uint64_t hi = phaseBits(period_);
            // scanIndex(0) == 0 < b (durations are positive) and
            // scanIndex(period_) falls through to the last segment.
            while (hi - lo > 1) {
                const std::uint64_t mid = lo + (hi - lo) / 2;
                if (scanIndex(phaseFromBits(mid)) >= b) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            thresholds_.push_back(phaseFromBits(hi));
        }
    }

    std::vector<Segment> segments_;
    std::vector<Seconds> thresholds_;
    /** Cumulative segment end phases; back() == period_. */
    std::vector<Seconds> ends_;
    Seconds period_ = 0.0;
    Joules periodEnergy_ = 0.0;
};

} // namespace mouse

#endif // MOUSE_HARVEST_POWER_SOURCE_HH
