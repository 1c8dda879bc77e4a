"""Joint time-series causal graphs over system, context and dummy variables.

A stationary time-series graph stores one link per ``(i, j, tau)`` triple,
meaning "variable ``i`` at time ``t - tau`` is linked to variable ``j`` at
time ``t``"; the link stands for all of its time-shifted copies.  Spatial
contexts and the two dummy variables are constant (or carry no temporal
information) and are represented as single nodes at pseudo-lag 0 that attach
to every time copy of their neighbours.
"""

from __future__ import annotations

import numbers
from collections import deque
from enum import Enum


def is_integer(value):
    """Whether ``value`` is an integer, Python's or numpy's; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class GraphStructureError(ValueError):
    """Raised for malformed graphs (bad roles, marks, or lags)."""


class GraphFormatError(ValueError):
    """Raised when parsing the text serialization fails."""


class VariableRole(Enum):
    SYSTEM = "System"
    TEMPORAL_CONTEXT = "TemporalContext"
    SPATIAL_CONTEXT = "SpatialContext"
    LATENT_TEMPORAL_CONTEXT = "LatentTemporalContext"
    LATENT_SPATIAL_CONTEXT = "LatentSpatialContext"
    TIME_DUMMY = "TimeDummy"
    SPACE_DUMMY = "SpaceDummy"

    @property
    def is_system(self):
        return self is VariableRole.SYSTEM

    @property
    def is_dummy(self):
        return self in (VariableRole.TIME_DUMMY, VariableRole.SPACE_DUMMY)

    @property
    def is_context(self):
        return self in (
            VariableRole.TEMPORAL_CONTEXT,
            VariableRole.SPATIAL_CONTEXT,
            VariableRole.LATENT_TEMPORAL_CONTEXT,
            VariableRole.LATENT_SPATIAL_CONTEXT,
        )

    @property
    def is_latent(self):
        return self in (
            VariableRole.LATENT_TEMPORAL_CONTEXT,
            VariableRole.LATENT_SPATIAL_CONTEXT,
        )

    @property
    def is_observed_context(self):
        return self in (
            VariableRole.TEMPORAL_CONTEXT,
            VariableRole.SPATIAL_CONTEXT,
        )

    @property
    def is_temporal_kind(self):
        return self in (
            VariableRole.TEMPORAL_CONTEXT,
            VariableRole.LATENT_TEMPORAL_CONTEXT,
            VariableRole.TIME_DUMMY,
        )

    @property
    def is_time_indexed(self):
        """Whether copies of the variable exist at every time step.

        Spatial-kind variables and both dummies appear as a single node at
        pseudo-lag 0; everything else repeats along the time axis.
        """
        return self in (
            VariableRole.SYSTEM,
            VariableRole.TEMPORAL_CONTEXT,
            VariableRole.LATENT_TEMPORAL_CONTEXT,
        )


# Edge marks of a link (i, j, tau): mark as seen from the stored direction.
ABSENT = ""
DIRECTED = "-->"  # tail at (i, t-tau), head at (j, t)
REVERSED = "<--"
UNDIRECTED = "o-o"
CONFLICT = "x-x"

MARKS = (DIRECTED, REVERSED, UNDIRECTED, CONFLICT)
_MIRROR = {DIRECTED: REVERSED, REVERSED: DIRECTED,
           UNDIRECTED: UNDIRECTED, CONFLICT: CONFLICT, ABSENT: ABSENT}


def mirror_mark(mark):
    """Mark of the same link read from the opposite endpoint."""
    return _MIRROR[mark]


class TimeSeriesGraph:
    """Stationary time-series graph with role-labelled variables.

    Contemporaneous links are stored once per unordered pair (under
    ``i < j``); querying the swapped order returns the mirrored mark.
    Lagged links (``tau > 0``) are stored as given and can never carry a
    ``<--`` mark since time order forbids future-to-past edges.
    """

    def __init__(self, roles, tau_max):
        roles = tuple(VariableRole(r) for r in roles)
        if not is_integer(tau_max):
            raise GraphStructureError(f"tau_max={tau_max!r} must be an integer")
        if tau_max < 0:
            raise GraphStructureError("tau_max must be non-negative")
        self.roles = roles
        self.n_vars = len(roles)
        self.tau_max = tau_max
        self._marks = {}
        self._unrolled_cache = {}

    # -- construction ------------------------------------------------------

    def _check_slot(self, i, j, tau):
        if not (0 <= i < self.n_vars and 0 <= j < self.n_vars):
            raise GraphStructureError(f"variable out of range: ({i}, {j})")
        if not (0 <= tau <= self.tau_max):
            raise GraphStructureError(f"lag {tau} outside [0, {self.tau_max}]")
        if i == j and tau == 0:
            raise GraphStructureError("contemporaneous self-links are not allowed")
        if self.roles[j].is_dummy:
            raise GraphStructureError("dummy variables cannot have incoming links")
        if tau > 0 and not (self.roles[i].is_time_indexed and self.roles[j].is_time_indexed):
            raise GraphStructureError(
                "single-node variables (spatial contexts, dummies) only have "
                "contemporaneous links")

    def _key(self, i, j, tau):
        if tau == 0 and i > j:
            return (j, i, 0), True
        return (i, j, tau), False

    def set_mark(self, i, j, tau, mark):
        if mark not in MARKS:
            raise GraphStructureError(f"invalid mark {mark!r}")
        if tau > 0 and mark == REVERSED:
            raise GraphStructureError("lagged links cannot point into the past")
        if tau == 0 and mark == REVERSED:
            i, j, mark = j, i, DIRECTED
        self._check_slot(i, j, tau)
        if self.roles[i].is_dummy and mark != DIRECTED:
            raise GraphStructureError("dummy links are always directed")
        key, flipped = self._key(i, j, tau)
        self._marks[key] = mirror_mark(mark) if flipped else mark
        self._unrolled_cache.clear()

    def remove_link(self, i, j, tau):
        key, _ = self._key(i, j, tau)
        self._marks.pop(key, None)
        self._unrolled_cache.clear()

    # -- queries -----------------------------------------------------------

    def mark(self, i, j, tau):
        key, flipped = self._key(i, j, tau)
        mark = self._marks.get(key, ABSENT)
        return mirror_mark(mark) if flipped else mark

    def has_link(self, i, j, tau):
        return self.mark(i, j, tau) != ABSENT

    def edges(self):
        """Canonical edge list, sorted, as ``(i, j, tau, mark)`` tuples."""
        return [(i, j, tau, self._marks[(i, j, tau)])
                for (i, j, tau) in sorted(self._marks)]

    def contemporaneous_pairs(self):
        """The endpoints ``(i, j)``, ``i < j``, of each lag-0 link, unsorted."""
        return [(i, j) for (i, j, tau) in self._marks if not tau]

    def n_edges(self):
        return len(self._marks)

    def copy(self):
        g = self.__class__(self.roles, self.tau_max)
        g._marks = dict(self._marks)
        return g

    def __eq__(self, other):
        if not isinstance(other, TimeSeriesGraph):
            return NotImplemented
        return (self.roles == other.roles and self.tau_max == other.tau_max
                and self._marks == other._marks)

    def __repr__(self):
        return (f"{self.__class__.__name__}(n_vars={self.n_vars}, "
                f"tau_max={self.tau_max}, n_edges={self.n_edges()})")

    # -- serialization -----------------------------------------------------

    def to_text(self):
        """Line-oriented text form; round-trips bit-exactly."""
        lines = [f"graph {self.n_vars} {self.tau_max}",
                 "roles " + " ".join(r.value for r in self.roles)]
        for (i, j, tau, mark) in self.edges():
            lines.append(f"{i} {j} {tau} {mark}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2 or not lines[0].startswith("graph "):
            raise GraphFormatError("missing 'graph <n_vars> <tau_max>' header")
        try:
            _, n_vars, tau_max = lines[0].split()
            n_vars, tau_max = int(n_vars), int(tau_max)
        except ValueError as exc:
            raise GraphFormatError(f"bad header line: {lines[0]!r}") from exc
        if not lines[1].startswith("roles "):
            raise GraphFormatError("missing roles line")
        try:
            roles = [VariableRole(tok) for tok in lines[1].split()[1:]]
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from exc
        if len(roles) != n_vars:
            raise GraphFormatError("role count does not match n_vars")
        g = cls(roles, tau_max)
        for ln in lines[2:]:
            parts = ln.split()
            if len(parts) != 4:
                raise GraphFormatError(f"bad edge line: {ln!r}")
            i, j, tau, mark = int(parts[0]), int(parts[1]), int(parts[2]), parts[3]
            g.set_mark(i, j, tau, mark)
        return g

    # -- unrolling and d-separation ----------------------------------------

    def _unrolled(self, depth):
        """Parent/child maps of the graph unrolled ``depth`` lags into the past.

        Nodes are ``(var, lag)``; single-node variables appear once at lag 0
        and connect to every unrolled copy of their time-indexed neighbours.
        """
        if depth in self._unrolled_cache:
            return self._unrolled_cache[depth]
        parents = {}
        children = {}
        for v, role in enumerate(self.roles):
            lags = range(depth + 1) if role.is_time_indexed else (0,)
            for s in lags:
                parents[(v, s)] = []
                children[(v, s)] = []

        def add(src, dst):
            parents[dst].append(src)
            children[src].append(dst)

        for (i, j, tau, mark) in self.edges():
            if mark == REVERSED:
                i, j = j, i
            elif mark != DIRECTED:
                raise GraphStructureError(
                    "d-separation requires a fully directed graph; "
                    f"found mark {mark!r}")
            i_single = not self.roles[i].is_time_indexed
            j_single = not self.roles[j].is_time_indexed
            if j_single:
                add((i, 0), (j, 0))
            else:
                for s in range(depth + 1):
                    if i_single:
                        add((i, 0), (j, s))
                    elif s + tau <= depth:
                        add((i, s + tau), (j, s))
        self._unrolled_cache[depth] = (parents, children)
        return parents, children


class GroundTruthGraph(TimeSeriesGraph):
    """Fully directed generating graph over system and (latent) context nodes.

    All edges carry ``-->`` marks, the contemporaneous sub-graph is acyclic,
    and context variables are exogenous to the system (no system-to-context
    edges).  Dummy roles never appear here; they only enter projected or
    estimated graphs.
    """

    def __init__(self, roles, tau_max):
        super().__init__(roles, tau_max)
        for role in self.roles:
            if role.is_dummy:
                raise GraphStructureError(
                    "dummy roles are not allowed in a ground-truth graph")

    def set_mark(self, i, j, tau, mark):
        if mark not in (DIRECTED, REVERSED):
            raise GraphStructureError("ground-truth edges must be directed")
        if mark == REVERSED:
            i, j, mark = j, i, DIRECTED
        if self.roles[j].is_context and self.roles[i].is_system:
            raise GraphStructureError("context variables are exogenous to the system")
        super().set_mark(i, j, tau, mark)

    def add_edge(self, i, j, tau):
        self.set_mark(i, j, tau, DIRECTED)

    def directed_edges(self):
        """Edges as ``(parent, child, tau)``, undoing canonical mirroring."""
        out = []
        for (i, j, tau, mark) in self.edges():
            if mark == REVERSED:
                out.append((j, i, tau))
            else:
                out.append((i, j, tau))
        return sorted(out)

    def validate(self):
        """Check lag-0 acyclicity; raises GraphStructureError on a cycle."""
        children = {v: [] for v in range(self.n_vars)}
        indeg = {v: 0 for v in range(self.n_vars)}
        for (i, j, tau) in self.directed_edges():
            if tau == 0:
                children[i].append(j)
                indeg[j] += 1
        queue = deque(v for v in indeg if indeg[v] == 0)
        seen = 0
        while queue:
            v = queue.popleft()
            seen += 1
            for c in children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if seen != self.n_vars:
            raise GraphStructureError("contemporaneous sub-graph contains a cycle")
        return self


def observed_variables(g):
    """Indices of system and observed-context variables, in graph order."""
    return [v for v, role in enumerate(g.roles)
            if role.is_system or role.is_observed_context]


def mask_contexts_latent(g):
    """Copy of ``g`` with every observed context re-labelled as latent."""
    latent_of = {VariableRole.TEMPORAL_CONTEXT: VariableRole.LATENT_TEMPORAL_CONTEXT,
                 VariableRole.SPATIAL_CONTEXT: VariableRole.LATENT_SPATIAL_CONTEXT}
    roles = [latent_of.get(role, role) for role in g.roles]
    out = g.__class__(roles, g.tau_max)
    out._marks = dict(g._marks)
    return out


def dummy_projection(g):
    """Project latent-context edges onto one time dummy and one space dummy.

    The output keeps all system and observed-context nodes (in their original
    relative order) plus a TimeDummy and a SpaceDummy appended at the end.
    A dummy points at a system variable iff some latent context of its kind
    does in ``g``; observed context-to-system and system-system edges are
    copied verbatim; context-context edges are dropped.
    """
    if not isinstance(g, GroundTruthGraph):
        raise GraphStructureError("dummy_projection expects a ground-truth graph")
    obs = observed_variables(g)
    remap = {v: k for k, v in enumerate(obs)}
    roles = [g.roles[v] for v in obs]
    roles += [VariableRole.TIME_DUMMY, VariableRole.SPACE_DUMMY]
    time_dummy, space_dummy = len(obs), len(obs) + 1
    out = TimeSeriesGraph(roles, g.tau_max)
    for (i, j, tau) in g.directed_edges():
        ri, rj = g.roles[i], g.roles[j]
        if ri.is_latent and rj.is_system:
            dummy = time_dummy if ri.is_temporal_kind else space_dummy
            out.set_mark(dummy, remap[j], 0, DIRECTED)
        elif not ri.is_latent and not rj.is_latent:
            if ri.is_system or rj.is_system:
                out.set_mark(remap[i], remap[j], tau, DIRECTED)
    return out


def dummy_deletion(g):
    """Remove dummy nodes and their incident edges; everything else is kept."""
    keep = [v for v, role in enumerate(g.roles) if not role.is_dummy]
    if len(keep) == g.n_vars:
        return g.copy()
    remap = {v: k for k, v in enumerate(keep)}
    out = TimeSeriesGraph([g.roles[v] for v in keep], g.tau_max)
    for (i, j, tau, mark) in g.edges():
        if i in remap and j in remap:
            out.set_mark(remap[i], remap[j], tau, mark)
    return out


def target_graph(g):
    """Induced sub-graph over system plus observed-context nodes.

    Keeps exactly the edges with at least one system endpoint among observed
    variables; context-context edges are excluded.
    """
    if not isinstance(g, GroundTruthGraph):
        raise GraphStructureError("target_graph expects a ground-truth graph")
    obs = observed_variables(g)
    remap = {v: k for k, v in enumerate(obs)}
    out = TimeSeriesGraph([g.roles[v] for v in obs], g.tau_max)
    for (i, j, tau) in g.directed_edges():
        if i in remap and j in remap and (g.roles[i].is_system or g.roles[j].is_system):
            out.set_mark(remap[i], remap[j], tau, DIRECTED)
    return out


def d_connected(g, x, z, depth):
    """Yield the nodes d-connected to ``x`` given the node set ``z``.

    One ball-bouncing pass (Bayes-ball; Shachter 1998) over ``g`` unrolled
    ``depth`` lags into the past yields each node once, as it reaches it,
    and never ``x`` or a node of ``z``; ``x`` must not be in ``z``.  A caller
    that stops iterating stops the pass.  ``d_separated`` checks the nodes.
    """
    parents, children = g._unrolled(depth)
    ancestors, stack = set(z), list(z)
    while stack:
        for p in parents[stack.pop()]:
            if p not in ancestors:
                ancestors.add(p)
                stack.append(p)

    # states (node, up): up means the ball arrived from a child
    visited, reached = set(), {x}
    queue = deque([(x, True)])
    while queue:
        state = queue.popleft()
        if state in visited:
            continue
        visited.add(state)
        node, up = state
        if node not in reached and node not in z:
            reached.add(node)
            yield node
        if up and node not in z:
            queue.extend([(p, True) for p in parents[node]])
        if node not in z:
            queue.extend([(c, False) for c in children[node]])
        if not up and node in ancestors:
            queue.extend([(p, True) for p in parents[node]])


def d_separated(g, x, y, z, unroll_depth=None):
    """Exact d-separation of ``x`` and ``y`` given ``z`` in the unrolled graph.

    Nodes are ``(var, lag)`` references with non-negative lags (``lag`` means
    time ``t - lag``).  The stationary graph is unrolled ``unroll_depth`` lags
    into the past (default ``4 * max(tau_max, 1)``); the ``d_connected`` pass
    from ``x`` stops once it reaches ``y``.  A brute-force path enumeration
    validates this on small graphs in the test-suite.
    """
    if unroll_depth is None:
        unroll_depth = 4 * max(g.tau_max, 1)
    if unroll_depth < g.tau_max:
        raise GraphStructureError(
            f"unroll_depth {unroll_depth} is smaller than tau_max {g.tau_max}")
    zset = frozenset(z)
    if x == y:
        raise GraphStructureError("x and y must differ")
    if x in zset or y in zset:
        raise GraphStructureError("x and y must not be part of z")
    for (v, lag) in {x, y} | zset:
        if not (0 <= v < g.n_vars):
            raise GraphStructureError(f"variable {v} out of range")
        max_lag = unroll_depth if g.roles[v].is_time_indexed else 0
        if not (0 <= lag <= max_lag):
            raise GraphStructureError(f"lag {lag} of variable {v} outside window")
    return y not in d_connected(g, x, zset, unroll_depth)
