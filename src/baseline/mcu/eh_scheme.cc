#include "eh_scheme.hh"

#include "baseline/mcu/datasheet.hh"

namespace mouse::mcu
{

namespace
{

constexpr double kCycle = kCyclesPerInstruction / kCpuFrequencyHz;

/** The schemes in listing order.  Oracle is free with a perfect
 *  resume, the bound no real scheme beats.  BEC's NV flip-flop
 *  shadow write hides inside the instruction cycle (the point of the
 *  architecture), so it costs no per-op latency.  ODAB flushes all
 *  state once when the brown-out detector fires.  Clank monitors
 *  WAR hazards on every op and checkpoints registers at each region
 *  boundary. */
const EhScheme kSchemes[] = {
    {"bec", {kBecBackupEnergy, 0.0}, {},
     {kBecRestoreEnergy, kBecRestoreCycles / kCpuFrequencyHz}, {}, false},
    {"odab", {},
     {kOdabBackupEnergy, kOdabBackupCycles / kCpuFrequencyHz},
     {kOdabRestoreEnergy, kOdabRestoreCycles / kCpuFrequencyHz}, {},
     false},
    {"clank", {kClankPerOpEnergy, kClankPerOpCycles * kCycle}, {},
     {kClankRestoreEnergy, kClankRestoreCycles / kCpuFrequencyHz},
     {kClankCheckpointEnergy, kClankCheckpointCycles / kCpuFrequencyHz},
     true},
    {"oracle", {}, {}, {}, {}, false},
};

} // namespace

const std::vector<std::string> &
ehSchemeNames()
{
    static const std::vector<std::string> names{"bec", "odab",
                                                "clank", "oracle"};
    return names;
}

std::unique_ptr<EhScheme>
makeEhScheme(const std::string &name)
{
    for (const EhScheme &scheme : kSchemes) {
        if (name == scheme.id) {
            return std::make_unique<EhScheme>(scheme);
        }
    }
    return nullptr;
}

} // namespace mouse::mcu
