// Fixture: every feasibility decision in src/compile goes through
// the recording helper, so builder-feasible stays silent.
class KernelBuilder
{
    bool
    consultFeasible(GateType g)
    {
        const bool ok = lib_.feasible(g);
        record(g, ok);
        return ok;
    }

    Val
    andFlip(Val a, Val b)
    {
        if (consultFeasible(GateType::kAnd2)) {
            return gate2(GateType::kAnd2, a, b);
        }
        return copyFlip(andSame(a, b));
    }
};
