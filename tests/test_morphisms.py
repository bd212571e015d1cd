import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import rng_bitop, rng_qpm
from qconn import (
    PointMap,
    antisym_components,
    check_image_preservation,
    is_nonexpansive,
    is_uniformly_continuous,
    specialization_bitop,
    specialization_preserving,
    validate_qpm,
)
from qconn.bitopology import AlexandrovTopology, BitopSpace
from qconn.errors import CarrierMismatch, PreconditionFailed
from qconn.relations import indices_of


def identity_map(points):
    return PointMap(source_points=points, target_points=points,
                    assignment=tuple(range(len(points))))


def test_identity_nonexpansive():
    d = rng_qpm(random.Random(0), 4)
    f = identity_map(d.points)
    assert is_nonexpansive(f, d, d)
    assert is_uniformly_continuous(f, d, d)


def test_constant_map_nonexpansive():
    d = rng_qpm(random.Random(1), 4)
    target = validate_qpm([[0]], points=("t",))
    f = PointMap(source_points=d.points, target_points=("t",),
                 assignment=(0,) * 4)
    assert is_nonexpansive(f, d, target)


def test_collapse_of_asymmetric_pair():
    d = validate_qpm([["0", "1"], ["inf", "0"]])
    target = validate_qpm([[0]], points=("t",))
    f = PointMap(source_points=d.points, target_points=("t",), assignment=(0, 0))
    assert is_nonexpansive(f, d, target)


def test_expanding_map_detected():
    dX = validate_qpm([[0, 1], [1, 0]])
    dY = validate_qpm([[0, 3], [3, 0]])
    f = PointMap(source_points=dX.points, target_points=dY.points,
                 assignment=(0, 1))
    assert not is_nonexpansive(f, dX, dY)
    # still uniformly continuous: finite spaces with positive spectra
    assert is_uniformly_continuous(f, dX, dY)


def test_uniform_continuity_can_fail():
    # source identifies two points at forward distance 0; target separates
    # their images, so no delta works for small eps
    dX = validate_qpm([[0, 0], [0, 0]])
    dY = validate_qpm([[0, 1], [1, 0]])
    f = PointMap(source_points=dX.points, target_points=dY.points,
                 assignment=(0, 1))
    assert not is_uniformly_continuous(f, dX, dY)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 5), st.integers(2, 5))
def test_nonexpansive_implies_uniformly_continuous(seed, n, m):
    rng = random.Random(seed)
    dX = rng_qpm(rng, n)
    dY = rng_qpm(rng, m)
    assignment = tuple(rng.randrange(m) for _ in range(n))
    f = PointMap(source_points=dX.points, target_points=dY.points,
                 assignment=assignment)
    if is_nonexpansive(f, dX, dY):
        assert is_uniformly_continuous(f, dX, dY)


def _uniformly_continuous_by_spectrum(f, dX, dY) -> bool:
    """Reference oracle: for every eps in the target's positive spectrum
    some delta in the source's spectrum has d_X < delta forcing
    d_Y < eps; the sets {d < r} change only as r crosses spectrum values,
    and 1 stands in for an empty spectrum."""
    eps_candidates = dY.positive_spectrum() or [Fraction(1)]
    delta_candidates = dX.positive_spectrum() or [Fraction(1)]
    for eps in eps_candidates:
        near_y = dY.ball_rows(eps)
        if not any(all(near_y[f(x)] >> f(y) & 1
                       for x, near in enumerate(dX.ball_rows(delta))
                       for y in indices_of(near & ~(1 << x)))
                   for delta in delta_candidates):
            return False
    return True


def test_uniform_continuity_matches_the_spectrum_scan():
    verdicts = []
    for seed in range(400):
        rng = random.Random(seed)
        dX = rng_qpm(rng, rng.randint(1, 7))
        dY = rng_qpm(rng, rng.randint(1, 5))
        f = PointMap(source_points=dX.points, target_points=dY.points,
                     assignment=tuple(rng.randrange(dY.n) for _ in range(dX.n)))
        verdict = is_uniformly_continuous(f, dX, dY)
        assert verdict == _uniformly_continuous_by_spectrum(f, dX, dY), seed
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 350


def test_uniformly_continuous_maps_preserve_inseparability():
    """The paper's map theorem end to end on metrics: uniform continuity is
    preservation of the zero relation, hence of its transpose, so it is
    exactly specialization preservation between the two bitopologies, and
    such a map keeps every inseparable image inseparable."""
    verdicts = []
    for seed in range(400):
        rng = random.Random(seed)
        dX = rng_qpm(rng, rng.randint(1, 7))
        dY = rng_qpm(rng, rng.randint(1, 5))
        f = PointMap(source_points=dX.points, target_points=dY.points,
                     assignment=tuple(rng.randrange(dY.n) for _ in range(dX.n)))
        bX, bY = specialization_bitop(dX), specialization_bitop(dY)
        verdict = is_uniformly_continuous(f, dX, dY)
        assert verdict == (specialization_preserving(f, bX, bY) is None), seed
        if verdict:
            assert check_image_preservation(f, bX, bY)["image_preserved"], seed
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 350


def test_carrier_mismatch():
    dX = rng_qpm(random.Random(2), 3)
    dY = rng_qpm(random.Random(3), 4)
    f = identity_map(dX.points)
    with pytest.raises(CarrierMismatch):
        is_nonexpansive(f, dX, dY)


# -- image preservation -----------------------------------------------------


def test_identity_preserves(indiscrete_split_space):
    b = indiscrete_split_space
    f = identity_map(b.points)
    report = check_image_preservation(f, b, b)
    assert report["image_preserved"]


def test_quotient_of_split_space(indiscrete_split_space):
    # collapse {0,1} to a single point of a 2-point indiscrete-forward target
    points = ("c", "2")
    target = BitopSpace(
        forward=AlexandrovTopology(points=points, nbhd=(0b11, 0b11)),
        backward=AlexandrovTopology(points=points, nbhd=(0b01, 0b10)),
    )
    f = PointMap(source_points=indiscrete_split_space.points,
                 target_points=points, assignment=(0, 0, 1))
    assert specialization_preserving(f, indiscrete_split_space, target) is None
    report = check_image_preservation(f, indiscrete_split_space, target)
    assert report["image_preserved"]


def test_constant_map_image_singleton(cycle_split_space):
    b = cycle_split_space
    t = AlexandrovTopology(points=("t",), nbhd=(1,))
    target = BitopSpace(forward=t, backward=t)
    f = PointMap(source_points=b.points, target_points=("t",),
                 assignment=(0, 0, 0))
    report = check_image_preservation(f, b, target)
    assert report["image_preserved"]


def test_precondition_failure_raises():
    src_t = AlexandrovTopology(points=("a", "b"), nbhd=(0b11, 0b10))
    src = BitopSpace(forward=src_t, backward=src_t)
    tgt_t = AlexandrovTopology(points=("x", "y"), nbhd=(0b01, 0b10))
    tgt = BitopSpace(forward=tgt_t, backward=tgt_t)
    f = PointMap(source_points=("a", "b"), target_points=("x", "y"),
                 assignment=(0, 1))
    assert specialization_preserving(f, src, tgt) == (0, 1)
    with pytest.raises(PreconditionFailed):
        check_image_preservation(f, src, tgt)


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 6))
def test_random_preserving_maps_keep_images_connected(seed, n):
    rng = random.Random(seed)
    src = rng_bitop(rng, n)
    tgt = rng_bitop(rng, rng.randint(1, n))
    for _ in range(8):
        assignment = tuple(rng.randrange(tgt.n) for _ in range(n))
        f = PointMap(source_points=src.points, target_points=tgt.points,
                     assignment=assignment)
        if specialization_preserving(f, src, tgt) is None:
            report = check_image_preservation(f, src, tgt)
            assert report["subsets_checked"] == len(antisym_components(src))
            assert report["image_preserved"]
            break

