from fractions import Fraction

from betarec.algebraic import RootBracket


def golden_bracket():
    return RootBracket((-1, -1, 1), Fraction(1), Fraction(2))


def test_interval_that_leaves_the_bracket_keeps_power_bounds():
    root = golden_bracket()
    built = []
    for _ in range(2):
        root.interval(96)
        built.append(root.power_bounds(64))
    assert built[1] is built[0]  # built once, then served from the cache


def test_power_bounds_rebuilt_after_the_bracket_moves():
    root = golden_bracket()
    coarse = root.power_bounds(32)
    assert root.power_bounds(32) is coarse
    root.interval(96)  # moves the bracket, so cached bounds are dropped
    fine = root.power_bounds(32)
    assert fine is not coarse
    assert coarse[1][0] <= fine[1][0] <= fine[1][1] <= coarse[1][1]
