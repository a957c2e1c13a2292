// Fixture: feasibility reads in src/compile outside the recording
// helper must be flagged by builder-feasible.  A mention in a comment
// is fine: lib_.feasible(g) here is not a finding.
bool
KernelBuilder::consultFeasible(GateType g)
{
    const bool ok = lib_.feasible(g);  // ok (the recording helper)
    record(g, ok);
    return ok;
}

Val
KernelBuilder::orFlip(Val a, Val b)
{
    if (lib_.feasible(GateType::kOr2)) {  // finding (unrecorded read)
        return gate2(GateType::kOr2, a, b);
    }
    if (consultFeasible(GateType::kAnd2)) {
        // A call of the helper is not its definition.
        return lib_->feasible(GateType::kNand2) ? a : b;  // finding
    }
    return lib_.feasibleGates().empty() ? a : b;  // finding
}
