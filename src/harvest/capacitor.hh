/**
 * @file
 * Energy-buffer capacitor model (paper Sections IV-C, VIII).
 *
 * Energy-harvesting systems decouple the power source from the load
 * with a capacitor: the source trickle-charges it, the accelerator
 * drains it in bursts.  MOUSE executes while the capacitor voltage
 * sits inside [vLow, vHigh]; crossing vLow shuts the system down
 * until the source refills it to vHigh.
 */

#ifndef MOUSE_HARVEST_CAPACITOR_HH
#define MOUSE_HARVEST_CAPACITOR_HH

#include <cmath>

#include "common/logging.hh"
#include "common/types.hh"

namespace mouse
{

/** Ideal capacitor used as the harvesting energy buffer. */
class Capacitor
{
  public:
    Capacitor(Farads capacitance, Volts initial = 0.0)
        : c_(capacitance), v_(initial)
    {
        mouse_assert(capacitance > 0.0, "non-positive capacitance");
    }

    Farads capacitance() const { return c_; }
    Volts voltage() const { return v_; }

    /** Stored energy, E = C V^2 / 2. */
    Joules
    energy() const
    {
        return 0.5 * c_ * v_ * v_;
    }

    /** Energy available before the voltage falls to @p v_floor. */
    Joules
    energyAbove(Volts v_floor) const
    {
        if (v_ <= v_floor) {
            return 0.0;
        }
        return 0.5 * c_ * (v_ * v_ - v_floor * v_floor);
    }

    /** Energy to charge from the current voltage to @p v_target. */
    Joules
    energyTo(Volts v_target) const
    {
        if (v_ >= v_target) {
            return 0.0;
        }
        return 0.5 * c_ * (v_target * v_target - v_ * v_);
    }

    /** Apply constant charging power for @p dt. */
    void
    charge(Watts p, Seconds dt)
    {
        const Joules e = energy() + p * dt;
        v_ = std::sqrt(2.0 * e / c_);
    }

    /** Instantly set the voltage (e.g. after a computed charge). */
    void setVoltage(Volts v) { v_ = v; }

    /**
     * Draw @p e joules from the buffer.  Draining below zero clamps
     * at zero volts (the physical system browns out slightly below
     * the sensed threshold before the monitor reacts).
     */
    void
    draw(Joules e)
    {
        const Joules left = energy() - e;
        v_ = left > 0.0 ? std::sqrt(2.0 * left / c_) : 0.0;
    }

  private:
    Farads c_;
    Volts v_;
};

} // namespace mouse

#endif // MOUSE_HARVEST_CAPACITOR_HH
