import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from seqmeter.bitseq import BitSequence, mask, pack, unpack
from seqmeter.complexity import linear_complexity
from seqmeter.generators import (
    DEFAULT_TAPS,
    GOLD_PAIRS,
    NonPrimitiveTapsError,
    NotPreferredPairError,
    _decimate,
    _msequence_period,
    fermat_quotient,
    fermat_threshold,
    gold_sequence,
    hall_sextic,
    is_prime,
    lfsr_cycle,
    m_sequence,
    small_kasami,
)


@pytest.mark.parametrize("ell", sorted(DEFAULT_TAPS))
def test_msequence_period_and_balance(ell):
    seq = m_sequence(ell)
    t = (1 << ell) - 1
    assert seq.period == t
    assert seq.n == 2 * t
    if ell <= 12:  # the exact scan tries every shorter candidate; quadratic
        assert seq.minimal_period() == t
    # one period carries 2^{ell-1} ones
    block = seq.data & mask(t)
    assert block.bit_count() == 1 << (ell - 1)


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 10])
def test_msequence_linear_complexity(ell):
    assert linear_complexity(m_sequence(ell))[0] == ell


def test_msequence_known_bits():
    # x^3 + x + 1, seed state 1
    assert m_sequence(3).to01() == "10010111001011"


def test_msequence_shift_and_add():
    # sum of a sequence and a nontrivial shift of itself is another shift
    seq = m_sequence(4)
    t = 15
    block = seq.data & mask(t)
    rots = {((block >> r) | (block << (t - r))) & mask(t) for r in range(t)}
    for r in range(1, t):
        shifted = ((block >> r) | (block << (t - r))) & mask(t)
        assert block ^ shifted in rots


def test_nonprimitive_taps_rejected():
    # x^4 + x^2 + 1 = (x^2+x+1)^2 has order 6, not 15
    with pytest.raises(NonPrimitiveTapsError) as exc:
        m_sequence(4, taps=0b0101)
    assert exc.value.observed == 6


def stepped_period(ell, taps, seed):
    """The register stepped one bit at a time, kept as the reference for `_msequence_period`."""
    T = (1 << ell) - 1
    top = ell - 1
    state = seed
    bits = []
    for i in range(T):
        bits.append("01"[state & 1])
        state = (state >> 1) | (((state & taps).bit_count() & 1) << top)
        if state == seed:
            if i + 1 < T:
                raise NonPrimitiveTapsError(ell, i + 1)
            return "".join(bits)
    raise NonPrimitiveTapsError(ell, None)


def _period_or_error(make, *register):
    try:
        return make(*register)
    except NonPrimitiveTapsError as exc:
        return exc.degree, exc.observed, str(exc)


def test_msequence_period_matches_stepped_register_exhaustive():
    # every taps mask, all-zero and x^(ell-1) ones included, and every seed
    for ell in range(2, 8):
        for taps in range(1 << ell):
            for seed in range(1, 1 << ell):
                register = (ell, taps, seed)
                assert _period_or_error(_msequence_period, *register) == \
                    _period_or_error(stepped_period, *register), register


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=14), st.data())
def test_msequence_period_matches_stepped_register(ell, data):
    taps = data.draw(st.integers(min_value=0, max_value=mask(ell)))
    seed = data.draw(st.integers(min_value=1, max_value=mask(ell)))
    assert _period_or_error(_msequence_period, ell, taps, seed) == \
        _period_or_error(stepped_period, ell, taps, seed)


@pytest.mark.parametrize("ell", [8, 11, 14])
def test_msequence_period_edge_taps(ell):
    # all-zero taps emit the seed and then zeros; a tap on x^(ell-1) makes
    # the first block one bit wide
    top = 1 << (ell - 1)
    for taps in (0, top, top | 1, top | 0b11, 1):
        for seed in (1, top, mask(ell), 0b101):
            assert _period_or_error(_msequence_period, ell, taps, seed) == \
                _period_or_error(stepped_period, ell, taps, seed), (taps, seed)
    assert _period_or_error(_msequence_period, ell, 0, 1) == \
        (ell, None, f"taps are not primitive for degree {ell}: "
                    f"state orbit does not return to the seed within {mask(ell)} steps")


def stepped_cycle(ell, taps, seed):
    """The register stepped one bit at a time until the seed state returns."""
    state, bits = seed, []
    while True:
        bits.append("01"[state & 1])
        state = (state >> 1) | (((state & taps).bit_count() & 1) << (ell - 1))
        if state == seed:
            return "".join(bits)


def test_lfsr_cycle_matches_stepped_register_exhaustive():
    # c_0 = 1 makes every nonzero seed return; non-primitive taps give the
    # shorter cycles through their seeds
    lengths = set()
    for ell in range(1, 7):
        for taps in range(1, 1 << ell, 2):
            for seed in range(1, 1 << ell):
                cycle = lfsr_cycle(ell, taps, seed)
                assert cycle == stepped_cycle(ell, taps, seed), (ell, taps, seed)
                lengths.add(len(cycle))
    assert sorted(lengths) == [*range(1, 11), 12, 14, 15, 21, 28, 30, 31, 63]


def decimated_by_index(u, d, shift):
    return "".join(u[d * (i + shift) % len(u)] for i in range(len(u)))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.data())
def test_decimate_matches_index_map(t, data):
    u = unpack(data.draw(st.integers(min_value=0, max_value=mask(t))), t)
    d = data.draw(st.integers(min_value=1, max_value=3 * t + 2))  # d > T as well
    factors = [f for f in range(2, t + 1) if t % f == 0]
    if factors and data.draw(st.booleans()):  # gcd(d, T) > 1
        d = data.draw(st.sampled_from(factors)) * data.draw(st.integers(min_value=1, max_value=4))
    shift = data.draw(st.integers(min_value=-3 * t, max_value=3 * t))
    assert _decimate(u, d, shift) == decimated_by_index(u, d, shift)


def test_decimate_small_cases():
    u = "0010111"
    for d in range(1, 16):  # d = 7 and 14 share the factor 7 with T
        for shift in range(-8, 9):
            assert _decimate(u, d, shift) == decimated_by_index(u, d, shift), (d, shift)
    assert _decimate("001", 5, 0) == "010"  # d > T: one character per lap


def test_lfsr_spec_validation():
    with pytest.raises(ValueError):
        m_sequence(4, taps=0b0011, seed=0)  # zero seed
    with pytest.raises(ValueError):
        m_sequence(1, taps=0b1)  # degree too small
    with pytest.raises(ValueError):
        m_sequence(21)  # no default taps that high


@pytest.mark.parametrize("ell", sorted(GOLD_PAIRS))
def test_gold_linear_complexity(ell):
    seq = gold_sequence(ell)
    assert seq.period == (1 << ell) - 1
    assert linear_complexity(seq)[0] == 2 * ell


def decimated_pair(ell):
    """DEFAULT_TAPS[ell] and the shortest recurrence of its m-sequence decimated by 3."""
    t = (1 << ell) - 1
    u = unpack(m_sequence(ell, periods=1).data, t)
    v = "".join(u[3 * i % t] for i in range(t))
    l, coeffs = linear_complexity(pack(v * 2), 2 * t)
    return DEFAULT_TAPS[ell], tuple(j for j in reversed(range(l)) if coeffs[j])


def _gold_prefix_with_breaking_bit(ell):
    """Two periods of gold ell behind one bit that breaks the period: L = 2 ell + 1, f = x g."""
    g = gold_sequence(ell, periods=4)
    t = g.period
    b = 1 - (g.data >> (t - 1) & 1)
    return BitSequence.from_int(((g.data << 1) | b) & mask(2 * t), 2 * t)


@pytest.mark.parametrize("ell", [5, 9, 11, 13, 15])
def test_shipped_gold_pairs_are_3_decimations(ell):
    assert GOLD_PAIRS[ell] == decimated_pair(ell)


def test_gold_shift_changes_sequence():
    a = gold_sequence(5, shift=0)
    b = gold_sequence(5, shift=1)
    assert a.data != b.data
    assert a.period == b.period


@pytest.mark.parametrize("shift,observed", [(0, 0), (1, 5)])
def test_gold_rejects_a_pair_that_is_not_preferred(shift, observed):
    # one m-sequence against itself: at shift 0 the XOR vanishes, at shift 1
    # it is another shift of the same m-sequence
    with pytest.raises(NotPreferredPairError) as exc:
        gold_sequence(5, shift=shift, taps_pair=((2, 0), (2, 0)))
    assert (exc.value.expected, exc.value.observed) == (10, observed)
    assert str(exc.value) == (
        f"pair is not preferred: combined linear complexity {observed}, want 10")


def test_gold_rejects_bad_degree():
    with pytest.raises(ValueError):
        gold_sequence(4)  # ell % 4 == 0 has no preferred pair


@pytest.mark.parametrize("ell", [4, 6, 8])
def test_small_kasami_linear_complexity(ell):
    seq = small_kasami(ell)
    assert seq.period == (1 << ell) - 1
    assert linear_complexity(seq)[0] == 3 * ell // 2


def test_small_kasami_rejects_odd():
    with pytest.raises(ValueError):
        small_kasami(5)


def test_primality_helpers():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


@pytest.mark.parametrize("t", [7, 13, 19, 31, 37])
def test_hall_period_and_weight(t):
    seq = hall_sextic(t)
    assert seq.period == t
    assert seq.minimal_period() == t
    assert seq.prefix(t).weight() == (t - 1) // 2


def test_hall_known_prefix():
    # t=7, generator 3: cosets {0,1,3} of the sextic classes
    assert hall_sextic(7).prefix(7).to01() == "0101001"


def test_hall_rejects_bad_modulus():
    with pytest.raises(ValueError):
        hall_sextic(8)  # not prime
    with pytest.raises(ValueError):
        hall_sextic(11)  # not 1 mod 6
    with pytest.raises(ValueError):
        hall_sextic(13, g=3)  # 3^3 = 1 mod 13, not primitive


@pytest.mark.parametrize("t", [t for t in range(7, 200, 6) if is_prime(t)])
def test_hall_default_root_is_the_smallest_primitive_root(t):
    # the one walk per candidate root picks the least g whose powers cover all t - 1 units
    root = next(g for g in range(2, t) if len({pow(g, e, t) for e in range(t - 1)}) == t - 1)
    assert hall_sextic(t) == hall_sextic(t, root)


def test_fermat_quotient_values():
    # q_5(2): (2^4 - 1)/5 = 3 mod 5
    assert fermat_quotient(5, 2) == 3
    assert fermat_quotient(5, 10) == 0
    assert fermat_quotient(3, 2) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_fermat_threshold_structure(p):
    seq = fermat_threshold(p)
    assert seq.period == p * p
    assert (p * p) % seq.minimal_period() == 0
    # zero at every multiple of p
    assert all(seq.bit(k * p) == 0 for k in range(p))


def test_fermat_known_prefix():
    assert fermat_threshold(3).prefix(9).to01() == "000011000"


def test_fermat_rejects_composite():
    with pytest.raises(ValueError):
        fermat_threshold(9)
    with pytest.raises(ValueError):
        fermat_threshold(2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(DEFAULT_TAPS)), st.integers(min_value=1, max_value=6))
def test_msequence_periods_parameter(ell, periods):
    t = (1 << ell) - 1
    seq = m_sequence(ell, periods=periods)
    assert seq.n == periods * t
    base = m_sequence(ell, periods=1).data
    for r in range(periods):
        assert (seq.data >> (r * t)) & mask(t) == base


# First 16 hex digits of the SHA-256 of each generator's packed bits,
# data.to_bytes((n + 7) // 8, "little"), recorded before the generators
# were moved onto the string codec; any change to the emitted bits shows.
GENERATOR_DIGESTS = {
    "m2": "3973e022e93220f9", "m3": "5b67345601e4f980", "m4": "3f77946124f67ab1",
    "m5": "abc8dcb4b727c6ba", "m6": "c6a2f6582946ad4c", "m7": "4fb4d9348dbaef8e",
    "m8": "7ea3b39e473ed48f", "m9": "25e1a105f420997d", "m10": "0c3133e12cb80207",
    "m11": "7294f8ddc194aac9", "m12": "a97985eec92a2909", "m13": "ac4ae4bb2bcade34",
    "m14": "0534eb96bce79be3", "m15": "61ae37f94ddb5516", "m16": "4a55d74c070133d9",
    "m17": "4812e37ba96418cd", "m18": "08f64ce063a201f6", "m19": "d996d6fa721b8a52",
    "m20": "857458bd993af647", "m5x7": "bd9aafb527197d82", "gold5s0": "e9cafff4712776c5",
    "gold5s3": "b1473ac002d1c0da", "gold6s0": "c9faf914ec281ba3", "gold6s3": "a6f8824d41f8cc1d",
    "gold7s0": "3b5bce922a2addd6", "gold7s3": "84d121618d34bfdb", "gold9s0": "9386b8f43526b79e",
    "gold9s3": "fab2d5fdee486410", "gold10s0": "f4020813966268d9", "gold10s3": "64c39fd7ea7e5519",
    "gold11s0": "d9765682ccc9411f", "gold11s3": "8e232e90c5572c61", "gold13s0": "675c0833be0fd64d",
    "gold13s3": "fa7fc90cfe9439a1", "gold15s0": "7bb2d353d5837bf6", "gold15s3": "c6485abde68e54b1",
    "kasami4s0": "643dbfbab0f127f7",
    "kasami4s5": "6f5a663eff7c87d6", "kasami6s0": "255b3548ee232af8", "kasami6s5": "3188d21bf77d5176",
    "kasami8s0": "3e9f0f7e58459f41", "kasami8s5": "edbf7810c233dc93", "kasami10s0": "407ed4c6a05c805b",
    "kasami10s5": "e4d996aa33f21e1a", "kasami12s0": "7883925ceef4a89d", "kasami12s5": "4a955960b17f97da",
    "hall7": "6da43b944e494e88", "hall13": "7a146a49a8e12204", "hall19": "8df0adf21f08f032",
    "hall31": "8484c92c0f80b741", "hall37": "a2270512bb832697", "hall43": "af24f03b49e1e6db",
    "hall61": "b3e1afffc7a180f2", "hall67": "65f217f3600e5a15", "hall73": "9ca1e1ba0aa1d73b",
    "hall79": "5e226be1d852216a", "hall97": "ec969b2352805e4e", "hall103": "cdf45a9a1fc05be3",
    "hall109": "306e6f43d79b5b14", "hall127": "88ac21b28e062952", "hall139": "841365cf5992e369",
    "hall151": "67e252e76e916577", "hall157": "c3d8ed700da0c76d", "hall163": "1ae9aa2d76209df3",
    "hall181": "5b063ab22b72b62f", "hall193": "d018b8fa42c59df6", "hall199": "025103148d2d99db",
    "fermat3": "8f7bf9aeb242d57d", "fermat5": "72bfcf23b79aa8e1", "fermat7": "96118b6e1fa21b4d",
    "fermat11": "11c25b30a639d69d", "fermat13": "78edbc8e30c76d3f", "fermat17": "2a27861f11d3c033",
    "fermat19": "2f205faf6c58d2da", "fermat23": "6e84aa28f8b5e971", "fermat29": "7310040b1b6bd708",
    "fermat31": "783c9f18f79d1ad3", "fermat37": "2039fe3428e5bb7e",
}


def _generator_cases():
    cases = {f"m{ell}": lambda ell=ell: m_sequence(ell) for ell in DEFAULT_TAPS}
    cases["m5x7"] = lambda: m_sequence(5, periods=7)
    for ell in GOLD_PAIRS:
        for s in (0, 3):
            cases[f"gold{ell}s{s}"] = lambda ell=ell, s=s: gold_sequence(ell, shift=s)
    for ell in range(4, 13, 2):
        for s in (0, 5):
            cases[f"kasami{ell}s{s}"] = lambda ell=ell, s=s: small_kasami(ell, shift=s, periods=3)
    for t in filter(is_prime, range(7, 200, 6)):
        cases[f"hall{t}"] = lambda t=t: hall_sextic(t, periods=1)
    for p in filter(is_prime, range(3, 38, 2)):
        cases[f"fermat{p}"] = lambda p=p: fermat_threshold(p)
    return cases


def test_generator_bits_pinned():
    cases = _generator_cases()
    assert cases.keys() == GENERATOR_DIGESTS.keys()
    for name, make in cases.items():
        seq = make()
        digest = hashlib.sha256(seq.data.to_bytes((seq.n + 7) // 8, "little")).hexdigest()
        assert digest[:16] == GENERATOR_DIGESTS[name], name
