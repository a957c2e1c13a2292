/**
 * @file
 * Interchangeable energy-harvesting backup schemes for the MCU
 * baseline (docs/BASELINES.md), the eh-sim `eh_scheme` idiom: a
 * scheme prices the checkpointing discipline — what every op pays,
 * what an outage pays, what a restart pays — and decides where
 * execution resumes after a power cut.
 *
 *   oracle  no-overhead upper bound: free, perfect resume.
 *   bec     backup-every-cycle: NV flip-flop shadow write per op,
 *           resume at the interrupted op.
 *   odab    on-demand-all-backup: one just-in-time full backup when
 *           the brown-out detector fires (the runner reserves the
 *           backup energy as headroom), resume at the interrupted op.
 *   clank   idempotent-region checkpointing: per-op WAR monitoring,
 *           a checkpoint at each region boundary, resume at the last
 *           boundary — the tail of the region is re-executed as Dead
 *           work.
 *
 * Schemes are constant tables; everything stream-dependent (the
 * Clank region placement) lives in the McuProgram.
 */

#ifndef MOUSE_BASELINE_MCU_EH_SCHEME_HH
#define MOUSE_BASELINE_MCU_EH_SCHEME_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/mcu/op_stream.hh"

namespace mouse::mcu
{

/** One backup/restore policy of the MCU baseline: a plain table of
 *  costs plus where execution resumes. */
struct EhScheme
{
    /** Stable lookup key ("bec", "odab", "clank", "oracle"). */
    const char *id;
    /** Overhead added to every executed op (continuous backup). */
    McuCost perOp;
    /** Just-in-time backup performed as the supply collapses; the
     *  runner reserves its energy as headroom. */
    McuCost backup;
    /** State restore on power-up (after the recharge). */
    McuCost restore;
    /** Checkpoint written each time execution crosses a region
     *  boundary of the program (Clank); zero for the others. */
    McuCost checkpoint;
    /** Roll back to the region start (Clank) instead of resuming at
     *  the cut; the tail is re-executed. */
    bool regionResume;

    const char *name() const { return id; }

    /** Op index execution resumes from after an outage that cut
     *  execution just before op @p nextOp. */
    std::uint64_t
    resumeOp(const McuProgram &prog, std::uint64_t nextOp) const
    {
        if (!regionResume) {
            return nextOp;
        }
        return prog.regionStart(nextOp == 0 ? 0 : nextOp - 1);
    }
};

/** Scheme names in listing order ({"bec","odab","clank","oracle"}). */
const std::vector<std::string> &ehSchemeNames();

/** Build the named scheme; nullptr for an unknown name. */
std::unique_ptr<EhScheme> makeEhScheme(const std::string &name);

} // namespace mouse::mcu

#endif // MOUSE_BASELINE_MCU_EH_SCHEME_HH
