from fractions import Fraction

from betarec.algebraic import RootBracket, floor_element, poly_eval


def golden_bracket():
    return RootBracket((-1, -1, 1), Fraction(1), Fraction(2))


def test_interval_that_leaves_the_bracket_keeps_power_bounds():
    root = golden_bracket()
    built = []
    for _ in range(2):
        root.interval(96)
        built.append(root.power_bounds(64))
    assert built[1] is built[0]  # built once, then served from the cache


def test_power_bounds_kept_after_finer_reads():
    root = golden_bracket()
    coarse = root.power_bounds(32)
    root.interval(96)
    root.power_bounds(1024)
    assert root.power_bounds(32) is coarse
    assert coarse == golden_bracket().power_bounds(32)
    assert root == golden_bracket() and "_bounds" not in repr(root)


def test_bounds_are_the_first_bisection_step_at_each_width():
    root = golden_bracket()
    for bits in (400, 64, 0, 1, 192, 65):
        lo, hi = root.bounds(bits)
        # bisection of [1, 2] halves the width exactly, so the first bracket
        # narrow enough has width exactly 2**-bits
        assert hi - lo == Fraction(1, 1 << bits)
        assert poly_eval(root.poly, lo) < 0 < poly_eval(root.poly, hi)
        assert (lo, hi) == golden_bracket().bounds(bits)
    assert (root.lo, root.hi) == (1, 2)


def test_escalating_floor_leaves_coarser_reads_alone():
    # F(301) - F(300) phi = psi**300, positive and about 2**-208, so its floor
    # (0) needs more than 384 bits of phi
    fib = [0, 1]
    while len(fib) < 302:
        fib.append(fib[-1] + fib[-2])
    root = golden_bracket()
    at_192 = root.bounds(192), root.power_bounds(192)
    assert floor_element([fib[301], -fib[300]], 1, root, 192) == 0
    assert 768 in root._bounds
    assert root.bounds(192) is at_192[0] and root.power_bounds(192) is at_192[1]


def test_degenerate_brackets():
    assert RootBracket((-4, 0, 1), Fraction(2), Fraction(3)).bounds(64) == (2, 2)
    root = RootBracket((-4, 0, 1), Fraction(1), Fraction(3))
    assert root.bounds(8) == (2, 2)  # the first midpoint is the root
    assert root.bounds(16) == (2, 2)  # resumed from the degenerate bracket
    assert (root.lo, root.hi) == (1, 3)
