"""The always-conditioned baseline's CI test: PCMCI+ (Runge 2020) with both
dummies in every conditioning set is ``j_pcmciplus(AlwaysConditioned(ci,
dummies), use_dummies=False)`` on a context-masked ``ci``."""


class AlwaysConditioned:
    """``ci`` with the selectors ``fixed`` appended to every query's ``z``."""

    def __init__(self, ci, fixed):
        self.ci, self.fixed = ci, list(fixed)
        self.var_roles, self.selectors = ci.var_roles, ci.selectors

    def batch(self, queries):
        return self.ci.batch([(x, y, list(z) + self.fixed) for x, y, z in queries])
