/**
 * @file
 * The instruction-trace MCU execution model (docs/BASELINES.md).
 *
 * Replays an McuProgram under a chosen EhScheme, either on wall
 * power or against the *same* harvesting environment description —
 * SourceSpec, platform presets, capacitance override, converter
 * efficiency — that drives the MOUSE simulators (HarvestConfig,
 * sim/simulator.hh).  The harvested runner is an energy-bucket
 * policy of the harvested loop MOUSE uses too (sim/harvest_loop.hh):
 * charge the buffer across its operating window, execute ops until
 * the usable energy (minus the scheme's just-in-time backup reserve)
 * runs out, back up, recharge, restore, resume where the scheme says
 * — re-executing any rolled-back tail as Dead work, the same
 * RunStats taxonomy as the MOUSE runners.
 *
 * Everything is closed-form per trace block and per burst, so runs
 * are deterministic pure functions of their inputs (no host clock,
 * no RNG): byte-identical across thread counts by construction.
 */

#ifndef MOUSE_BASELINE_MCU_MCU_MODEL_HH
#define MOUSE_BASELINE_MCU_MCU_MODEL_HH

#include "baseline/mcu/eh_scheme.hh"
#include "baseline/mcu/op_stream.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace mouse::mcu
{

/** Wall-power run: every op commits once; per-op scheme overhead and
 *  region checkpoints are still paid (they do not know the power is
 *  clean). */
RunStats mcuRunContinuous(const McuProgram &prog,
                          const EhScheme &scheme);

/**
 * Harvested run under @p harvest.  The platform preset (or
 * capacitanceOverride) sizes the buffer exactly as for MOUSE;
 * without either, the datasheet's default 4.7 uF / 3.6 V window is
 * used.  Fatal (non-termination) when the buffer cannot cover even
 * one op plus the scheme's backup reserve, mirroring the MOUSE
 * harvested runners.
 */
RunStats mcuRunHarvested(const McuProgram &prog,
                         const EhScheme &scheme,
                         const HarvestConfig &harvest);

} // namespace mouse::mcu

#endif // MOUSE_BASELINE_MCU_MCU_MODEL_HH
