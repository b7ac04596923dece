"""Fuzz of the library's input types, as the config fuzz covers config files.

``ChangeKernel``, ``DwellKernel``, ``PolicySpec`` and ``DelayLaw`` are fed
valid values and malformed ones: ragged, non-numeric or scalar rows, a tail
of another length, NaN, numbers past float's range, fields a policy kind does
not read, a pair sampled after its delivery, float or bool bounds.  Each
either refuses with its type's own one-line error (``ModelError`` for the
kernels, ``ValueError`` for the other two), never numpy's or Python's bare
error, or builds a value that keeps its type's invariants.
"""

import inspect
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaoi import ChangeKernel, DelayLaw, DwellKernel, ModelError, PolicySpec, generate_schedules
from gaoi.ensemble import POLICY_SALT, PathStreams, StreamFamily
from gaoi.markov import ATOL_STOCHASTIC

# the fields each policy kind reads, as PolicySpec's docstring lists them
KIND_FIELDS = {"periodic": ("period", "delay"), "greedy": ("delay",), "explicit": ("pairs",)}

# what no kernel holds: NaN, infinities, an int past float's range, text, None
BAD_NUMBER = st.sampled_from([float("nan"), float("inf"), -1.0, 1.5, 10**400, "a", "", None])
NUMBER = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, True, 5e-324]), BAD_NUMBER)
# a malformed row: a scalar, a row of rows, or a row holding a bad number
BAD_ROW = st.one_of(NUMBER, st.lists(st.lists(st.floats(0.0, 1.0), max_size=2), min_size=1,
                                     max_size=2), st.lists(NUMBER, min_size=1, max_size=3))


def mutated(draw, rows: list, bad_row) -> object:
    """``rows`` as given, or with one row, cell or the whole replaced by a
    malformed value, or with a row dropped or added."""
    how = draw(st.sampled_from(["keep", "row", "cell", "whole", "drop", "add"]))
    rows = [list(row) for row in rows]
    i = draw(st.integers(0, len(rows) - 1))
    if how == "row":
        rows[i] = draw(bad_row)
    elif how == "cell" and rows[i]:
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(BAD_NUMBER)
    elif how == "whole":
        return draw(st.one_of(NUMBER, st.lists(NUMBER, max_size=3)))
    elif how == "drop":
        del rows[i]
    elif how == "add":
        rows.append(draw(st.lists(st.floats(0.0, 1.0), max_size=3)))
    return rows


@st.composite
def change_rows(draw):
    n = draw(st.integers(1, 3))
    weights = [draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)) for _ in range(n)]
    return mutated(draw, [[w / sum(row) for w in row] for row in weights], BAD_ROW)


@st.composite
def dwell_args(draw):
    n = draw(st.integers(1, 3))
    prefix = mutated(draw, [draw(st.lists(st.floats(0.0, 1.0), max_size=3)) for _ in range(n)],
                     BAD_ROW)
    tail = draw(st.one_of(
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(0.01, 1.0), max_size=4),  # another length
        NUMBER, st.lists(NUMBER, min_size=n, max_size=n)))
    return prefix, tail


def assert_own_error(exc: Exception, kind: type):
    assert isinstance(exc, kind), repr(exc)
    assert "\n" not in str(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(rows=change_rows())
@example(rows=[[0.5, 0.5], [1.0]])
@example(rows=[[0.5, "a"], [1.0, 0.0]])
@example(rows=[[1.0, 10**400]])
def test_change_kernel_refuses_or_holds(rows):
    try:
        kernel = ChangeKernel(rows)
    except ModelError as exc:
        assert_own_error(exc, ModelError)
        return
    n = kernel.n_states
    assert kernel.rows.shape == (n, n) and n >= 1 and kernel.rows.dtype == float
    assert np.all((kernel.rows >= 0.0) & (kernel.rows <= 1.0))
    assert np.all(np.abs(kernel.rows.sum(axis=1) - 1.0) <= ATOL_STOCHASTIC)


@settings(max_examples=400, deadline=None)
@given(args=dwell_args())
@example(args=([[0.1, 0.2], [0.3]], [0.5, 0.6]))
@example(args=([[0.1], [0.2], [0.3]], [0.5, 0.5]))
@example(args=([[0.1]], 0.5))
@example(args=([0.1, 0.2], [0.5, 0.5]))
def test_dwell_kernel_refuses_or_holds(args):
    prefix, tail = args
    try:
        dwell = DwellKernel(prefix, tail)
    except ModelError as exc:
        assert_own_error(exc, ModelError)
        return
    # built: one row per tail value, each row its own hazards padded with its tail
    n, m = len(tail), max(len(row) for row in prefix)
    assert dwell.prefix.shape == (n, m) and dwell.tail.shape == (n,)
    for x, row in enumerate(prefix):
        padding = [float(tail[x])] * (m - len(row))
        assert dwell.prefix[x].tolist() == [float(q) for q in row] + padding
    assert dwell.tail.tolist() == [float(t) for t in tail]
    assert np.all((dwell.prefix >= 0.0) & (dwell.prefix <= 1.0))
    assert np.all((dwell.tail > 0.0) & (dwell.tail <= 1.0))


BOUND = st.one_of(st.integers(-2, 12), st.floats(-1.0, 12.0), st.booleans(), st.just("3"))


@settings(max_examples=300, deadline=None)
@given(lo=BOUND, hi=BOUND)
@example(lo=2.0, hi=8)
@example(lo=True, hi=True)
def test_delay_law_refuses_or_holds(lo, hi):
    try:
        law = DelayLaw(lo, hi)
    except ValueError as exc:
        assert_own_error(exc, ValueError)
        assert str(exc) == "delay bounds must be integers with 0 <= lo <= hi"
        return
    assert type(law.lo) is type(law.hi) is int and 0 <= law.lo <= law.hi


# the messages PolicySpec and the DelayLaw it is given raise, and no other
POLICY_MESSAGES = re.compile(
    r"unknown policy kind .*|(periodic|greedy|explicit) policy takes no (period|delay|pairs)"
    r"|periodic policy needs an integer period >= 1|policy delay must be a DelayLaw"
    r"|explicit pairs must be a tuple of \(sample, delivery\) integer pairs"
    r"|pair \(-?\d+, -?\d+\) is sampled after its delivery")
PAIR = st.tuples(st.integers(-3, 30), st.integers(-3, 30))


@st.composite
def policy_fields(draw) -> dict:
    """A kind (or no kind) with any of the three fields, valid or not."""
    fields = {"kind": draw(st.sampled_from([*KIND_FIELDS, "random", ""]))}
    if draw(st.booleans()):
        fields["period"] = draw(st.one_of(st.integers(-1, 12), st.floats(0.0, 5.0),
                                          st.booleans()))
    if draw(st.booleans()):
        fields["delay"] = draw(st.one_of(
            st.builds(lambda lo, extra: DelayLaw(lo, lo + extra), st.integers(0, 5),
                      st.integers(0, 5)),
            st.sampled_from([None, (0, 0), 3])))
    if draw(st.booleans()):
        fields["pairs"] = draw(st.one_of(
            st.lists(PAIR, max_size=5).map(tuple),
            st.lists(PAIR, max_size=3),  # a list, not a tuple
            st.sampled_from([((1.0, 2),), ((True, 2),), ((1, 2, 3),), ((1,),), (None,), 5])))
    return fields


@settings(max_examples=400, deadline=None)
@given(fields=policy_fields())
@example(fields={"kind": "greedy", "period": 50})
@example(fields={"kind": "explicit", "pairs": ((3, 5),), "delay": DelayLaw(2, 8)})
@example(fields={"kind": "periodic", "period": 5, "pairs": ((1, 2),)})
@example(fields={"kind": "explicit", "pairs": ((5, 3),)})
def test_policy_spec_refuses_or_holds(fields):
    try:
        spec = PolicySpec(**fields)
    except ValueError as exc:
        assert_own_error(exc, ValueError)
        assert POLICY_MESSAGES.fullmatch(str(exc)), str(exc)
        return
    # built: every field its kind does not read is at its default
    defaults = inspect.signature(PolicySpec).parameters
    for name in spec.__match_args__[1:]:
        if name not in KIND_FIELDS[spec.kind]:
            assert getattr(spec, name) == defaults[name].default, name
    if spec.kind == "periodic":
        assert type(spec.period) is int and spec.period >= 1
    assert isinstance(spec.delay, DelayLaw)
    assert all(type(s) is type(d) is int and s <= d for s, d in spec.pairs)
    # and it realises on a horizon
    block = generate_schedules(spec, 40, PathStreams(StreamFamily(0, POLICY_SALT), range(1)))
    assert block.num_paths == 1
