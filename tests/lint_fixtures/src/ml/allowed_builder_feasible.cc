// Fixture: outside src/compile a library's feasibility is ordinary
// data (the kernel memo compares recorded answers against it), so
// builder-feasible does not apply.
bool
answersMatch(const GateLibrary &lib, GateType g, bool answer)
{
    return lib.feasible(g) == answer;
}
