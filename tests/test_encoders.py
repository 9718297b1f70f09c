import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bindlm.encoders import (
    DegenerateMixError,
    EncoderConfig,
    EncoderConfigError,
    JointEmbedding,
    Modality,
    SyntheticEncoder,
    build_encoders,
    encode,
    mix,
    placeholder_embedding,
)
from bindlm.tensor import NonFiniteError, ShapeError, derive_rng


CFG = EncoderConfig(seed=7)


@pytest.fixture(scope="module")
def encoders():
    return build_encoders(CFG)


def test_zero_raw_is_normalized_offset(encoders):
    enc = encoders[Modality.AUDIO]
    e = encode(enc, np.zeros(CFG.dim_raw))
    off = enc.modality_offset.array
    want = off / np.sqrt((off * off).sum())
    assert np.abs(e.vector.array - want).max() < 1e-12


def test_encode_deterministic(encoders):
    enc = encoders[Modality.IMAGE]
    rng = derive_rng(1, "enc-det")
    raw = rng.standard_normal(CFG.dim_raw)
    a = encode(enc, raw).vector.array.tobytes()
    b = encode(enc, raw).vector.array.tobytes()
    assert a == b


def test_encode_is_pure_over_many_calls(encoders):
    enc = encoders[Modality.VIDEO]
    raw = derive_rng(2, "enc-pure").standard_normal(CFG.dim_raw)
    first = encode(enc, raw).vector.array.tobytes()
    for _ in range(10_000):
        if encode(enc, raw).vector.array.tobytes() != first:
            raise AssertionError("encode output changed between calls")


def test_encode_length_mismatch(encoders):
    with pytest.raises(ShapeError, match="raw length"):
        encode(encoders[Modality.IMAGE], np.zeros(CFG.dim_raw + 1))


def test_unit_norm_invariant(encoders):
    rng = derive_rng(3, "enc-norm")
    for i in range(50):
        m = list(encoders)[i % 5]
        e = encode(encoders[m], rng.standard_normal(CFG.dim_raw))
        assert abs(e.norm() - 1.0) < 1e-9


def test_paired_and_unpaired_cosines(encoders):
    """Monte-Carlo check of the joint-space construction, 1000 seeded samples."""
    rng = derive_rng(4, "enc-mc")
    img, aud = encoders[Modality.IMAGE], encoders[Modality.AUDIO]
    paired, unpaired = [], []
    prev = None
    for _ in range(1000):
        u = rng.standard_normal(CFG.dim_joint)
        u = u / np.sqrt((u * u).sum())
        jitter = 0.05
        e_img = encode(img, img.raw_for_latent(u + jitter * rng.standard_normal(CFG.dim_joint) / np.sqrt(CFG.dim_joint)))
        e_aud = encode(aud, aud.raw_for_latent(u + jitter * rng.standard_normal(CFG.dim_joint) / np.sqrt(CFG.dim_joint)))
        paired.append(float((e_img.vector.array @ e_aud.vector.array.T).item()))
        if prev is not None:
            unpaired.append(float((prev.vector.array @ e_aud.vector.array.T).item()))
        prev = e_img
    assert min(paired) >= 0.9
    assert np.mean(unpaired) < 0.5


def test_mix_selector(encoders):
    e1 = JointEmbedding.of(np.eye(1, 8, 0), Modality.IMAGE, "a")
    e2 = JointEmbedding.of(np.eye(1, 8, 3), Modality.AUDIO, "b")
    got = mix([e1, e2], [1.0, 0.0])
    assert np.array_equal(got.vector.array, e1.vector.array)
    assert got.modality is Modality.MIXED


def test_mix_idempotent_on_identical():
    e = JointEmbedding.of([[0.5, 0.5, 0.5, 0.5]], Modality.TEXT, "t")
    got = mix([e, e], [0.5, 0.5])
    assert np.array_equal(got.vector.array, e.vector.array)


def test_mix_orthogonal_hand_oracle():
    e1 = JointEmbedding.of(np.eye(1, 4, 0), Modality.IMAGE, "a")
    e2 = JointEmbedding.of(np.eye(1, 4, 1), Modality.AUDIO, "b")
    got = mix([e1, e2], [1.0, 1.0]).vector.array
    want = np.array([[1.0, 1.0, 0.0, 0.0]]) / np.sqrt(2.0)  # (e1+e2)/sqrt(2)
    assert np.abs(got - want).max() < 1e-12


def test_mix_degenerate():
    e = JointEmbedding.of([[1.0, 0.0]], Modality.IMAGE, "a")
    with pytest.raises(DegenerateMixError):
        mix([e, e], [1.0, -1.0])


def test_mix_argument_validation():
    e = JointEmbedding.of([[1.0, 0.0]], Modality.IMAGE, "a")
    with pytest.raises(ShapeError):
        mix([], [])
    with pytest.raises(ShapeError):
        mix([e], [1.0, 2.0])
    with pytest.raises(ShapeError):
        mix([e], [float("nan")])


@given(lam=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2**16))
def test_mix_scale_equivariance(lam, seed):
    rng = derive_rng(seed, "mix-eq")
    es = [
        JointEmbedding.of(rng.standard_normal(6), Modality.IMAGE, str(i))
        for i in range(3)
    ]
    coeffs = rng.uniform(0.2, 1.0, 3).tolist()
    a = mix(es, coeffs).vector.array
    b = mix(es, [lam * c for c in coeffs]).vector.array
    assert float((a @ b.T).item()) >= 1.0 - 1e-12


def test_placeholder_is_all_zero():
    p = placeholder_embedding()
    assert p.vector.shape == (1, 64)
    assert not p.vector.array.any()
    assert p.modality is Modality.IMAGE
    assert p.is_placeholder()


def test_joint_embedding_rejects_zero_unless_placeholder():
    with pytest.raises(ShapeError):
        JointEmbedding.of(np.zeros(4), Modality.IMAGE, "z")


def test_normalization_keeps_the_bits_of_ordinary_vectors():
    rng = derive_rng(4, "unit-bits")
    for _ in range(200):
        v = rng.standard_normal((1, 64)) * 10.0 ** rng.uniform(-100, 100)
        want = v / float(np.sqrt((v * v).sum()))
        assert JointEmbedding.of(v, Modality.TEXT, "t").vector.array.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("magnitude", [1e155, 1e200, 1e308, 1e-155, 1e-200, 1e-320])
def test_normalization_outside_the_squared_norm_range(magnitude):
    v = derive_rng(5, "unit-range").standard_normal(64)
    v = v / np.abs(v).max()
    e = JointEmbedding.of(v * magnitude, Modality.TEXT, "t")
    assert abs(e.norm() - 1.0) < 1e-12
    if magnitude > 1e-300:  # below that, v * magnitude has lost digits
        assert np.abs(e.vector.array - JointEmbedding.of(v, Modality.TEXT, "t").vector.array).max() < 1e-15
    mixed = mix([e, JointEmbedding.of(v[::-1], Modality.TEXT, "u")], [magnitude, magnitude])
    assert abs(mixed.norm() - 1.0) < 1e-12


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalization_rejects_nan_and_inf(bad):
    v = np.ones(8)
    v[3] = bad
    with pytest.raises(NonFiniteError, match=r"index \(0, 3\) in the vector for source 'x'"):
        JointEmbedding.of(v, Modality.TEXT, "x")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_mix_whose_weighted_sum_overflows_is_rejected():
    e = JointEmbedding.of(np.eye(8)[0], Modality.TEXT, "a")
    with pytest.raises(NonFiniteError, match=r"for source 'mix\(a\+a\)'"):
        mix([e, e], [1.7e308, 1.7e308])


@pytest.mark.parametrize("field,value", [
    ("dim_raw", "96"), ("dim_joint", "64"), ("dim_joint", 64.0), ("dim_joint", True),
    ("seed", 1.5), ("seed", None), ("dim_joint", 0), ("dim_joint", 97),
    ("offset_scale", float("nan")), ("offset_scale", "0.12"), ("noise_scale", float("inf")),
    ("noise_scale", False),
])
def test_encoder_config_rejects_bad_fields(field, value):
    with pytest.raises(EncoderConfigError, match=field):
        EncoderConfig(**{field: value})


def test_read_raw_samples(tmp_path):
    from bindlm.encoders import read_raw_samples

    p = tmp_path / "raw.jsonl"
    p.write_text(
        '{"source_id": "s0", "modality": "audio", "raw": [0.0, 1.0]}\n'
        '{"source_id": "s1", "modality": "image", "raw": [1.0, 0.0]}\n'
    )
    recs = read_raw_samples(p)
    assert [r["source_id"] for r in recs] == ["s0", "s1"]
    assert recs[0]["modality"] is Modality.AUDIO

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"source_id": "s0", "modality": "smell", "raw": [0.0]}\n')
    with pytest.raises(ShapeError, match="line 1"):
        read_raw_samples(bad)


def test_noise_scale_adds_deterministic_noise_to_nonzero_raws():
    quiet = SyntheticEncoder(Modality.AUDIO, EncoderConfig(seed=7))
    noisy = SyntheticEncoder(Modality.AUDIO, EncoderConfig(seed=7, noise_scale=0.1))
    raw = quiet.raw_for_latent(derive_rng(5, "noise-latent").standard_normal(64))
    a = encode(noisy, raw, "r").vector.array
    b = encode(noisy, raw.copy(), "r").vector.array
    assert a.tobytes() == b.tobytes()
    assert abs(float(np.sqrt((a * a).sum())) - 1.0) < 1e-12
    clean = encode(quiet, raw, "r").vector.array
    assert np.abs(a - clean).max() > 1e-3
    zero = np.zeros(CFG.dim_raw)
    assert encode(noisy, zero).vector.array.tobytes() == encode(quiet, zero).vector.array.tobytes()
