"""Embedding channels, attention scorers, gating, and checkpoints."""

import itertools
import json

import numpy as np
import pytest

from pairsieve.corpus import BLOCK_CLIPS, CorpusSpec, generate_corpus
from pairsieve.model import (
    ATTENTION_KINDS,
    INPUT_MODES,
    ModelError,
    adv_logit,
    additive_pair_scores,
    attend,
    attention_scores,
    clip_bounds,
    embed,
    init_bvf,
    init_model,
    load_checkpoint,
    sample_gate,
    sample_gumbel,
    save_checkpoint,
    softmax,
    vertex_bounds,
)

from oracles import frame_scores_by_formula, reference_bank


def _model(kind="dot", mode="residual", seed=0, d_in=6, d_emb=5, n_bvf=3, d_att=0):
    return init_model(d_in, d_emb, kind, mode, n_bvf, np.random.default_rng(seed), d_att=d_att)


def test_embed_unit_norm():
    rng = np.random.default_rng(0)
    params = _model()
    t = params.tensors
    t["language.weight"][...] = rng.normal(size=(6, 5))
    t["language.bias"][...] = rng.normal(size=5)
    x = rng.normal(size=(10, 6))
    y, pre, norm = embed(params, "language", x)
    norms = np.linalg.norm(y, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))
    assert np.all(y >= 0)  # relu output
    # the backward cache: pre-activation and the norm of its relu
    assert np.allclose(pre, x @ t["language.weight"] + t["language.bias"])
    assert np.allclose(norm[:, 0], np.linalg.norm(np.maximum(pre, 0.0), axis=1))


def test_embed_dead_relu_gives_zero_vector():
    params = _model(d_in=3, d_emb=4)
    params.tensors["vision.weight"][...] = -1.0  # biases start at zero
    y = embed(params, "vision", np.ones(3))[0]
    assert np.array_equal(y, np.zeros(4))
    # downstream scores with a dead embedding are simply zero
    assert float(y @ np.ones(4)) == 0.0


def test_softmax_known_value_and_stability():
    out = softmax(np.array([1.0, 0.0]))
    # evaluated by hand: e / (e + 1) and 1 / (e + 1)
    assert np.allclose(out, [0.7310585786300049, 0.26894142136999512], atol=1e-15)
    big = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(big))
    assert np.isclose(big.sum(), 1.0)


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(1)
    for kind in ATTENTION_KINDS:
        params = _model(kind=kind, seed=2)
        s = embed(params, "language", rng.normal(size=6))[0]
        h = embed(params, "vision", rng.normal(size=(7, 6)))[0]
        v, alpha, _ = attend(params, s, h)
        assert np.isclose(alpha.sum(), 1.0, atol=1e-12)
        assert np.allclose(v, alpha @ h)
        if kind == "uniform":
            assert np.allclose(alpha, np.full(7, 1.0 / 7.0))
        # a batch (B, E) against (B, F, E), as a training step pools its pairs
        s = embed(params, "language", rng.normal(size=(4, 6)))[0]
        h = embed(params, "vision", rng.normal(size=(4, 3, 6)))[0]
        v, alpha, _ = attend(params, s, h)
        assert alpha.shape == (4, 3) and np.all(alpha >= 0)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(v, np.einsum("bf,bfe->be", alpha, h))
        # unit sentences against convex mixes of unit frames: pair scores are cosines
        assert np.all(np.abs((s * v).sum(axis=1)) <= 1.0 + 1e-12)


def test_attention_scores_match_manual_forms():
    rng = np.random.default_rng(3)
    s = rng.normal(size=(3, 5))
    h = rng.normal(size=(3, 4, 5))
    for kind in ATTENTION_KINDS:
        params = _model(kind=kind, d_in=5)
        pair, _ = attention_scores(params, s[0], h[0])
        batch, _ = attention_scores(params, s, h)     # sentence i with clip i
        grid, _ = attention_scores(params, s, h[0])   # every sentence with clip 0
        assert pair.shape == (4,) and batch.shape == grid.shape == (3, 4), kind
        assert np.allclose(pair, frame_scores_by_formula(params, s[0], h[0])), kind
        v, alpha, _ = attend(params, s, h[0])
        for i in range(3):
            assert np.allclose(batch[i], frame_scores_by_formula(params, s[i], h[i])), kind
            assert np.allclose(grid[i], frame_scores_by_formula(params, s[i], h[0])), kind
            assert np.allclose(v[i], alpha[i] @ h[0]), kind


def _frame_bounds(params, s, h):
    """clip_bounds' (ub, lb) on s . v for one sentence s (E,) and frames h (F, E), and
    its delta, by their formulas, unit by unit."""
    t = params.tensors
    c, w, p = h @ t["attention.w2"], t["attention.w_score"], h @ s
    delta = max(sum(abs(w[a]) * min(2.0, abs(c[f, a] - c[g, a])) for a in range(len(w)))
                for f in range(len(h)) for g in range(len(h)))
    with np.errstate(over="ignore"):
        a_min = 1.0 / (1.0 + (len(h) - 1) * np.exp(delta))
    mix, rest = a_min * p.sum(), 1.0 - len(h) * a_min
    return mix + rest * p.max(), mix + rest * p.min(), delta


def _vertex_extremes(p, delta):
    """max and min of sum_f u_f p_f / sum_f u_f over all 2^F weight vertices u in
    {1, e^-delta}^F, for one pair's frame scores p (F,); all e^-delta is all 1 scaled."""
    vertices = itertools.product((1.0, np.exp(-delta)), repeat=len(p))
    ratios = [np.dot(u, p) / sum(u) for u in vertices if max(u) == 1.0]
    return max(ratios), min(ratios)


def test_additive_bounds_bracket_the_exact_score():
    # For d_att 0 and 3, clips of 1, 2, 3 and 10 frames, a w2 scaled so that frame
    # projections differ by more than 2 (where the tanh clip tightens the bound) and a
    # w_score big enough that e^delta overflows: clip_bounds is its formula's value,
    # vertex_bounds is the max and min over every weight vertex, each computed under
    # np.errstate(all="raise"), and the grouped bounds lie within clip_bounds' and
    # bracket attend's score, which additive_pair_scores matches, to 1e-12
    rng = np.random.default_rng(8)
    for d_att in (0, 3):
        for w2_scale, w_scale in ((1.0, 1.0), (10.0, 1.0), (1.0, 1e4)):
            params = _model("additive", seed=d_att, d_att=d_att)
            t = params.tensors
            t["attention.w2"] *= w2_scale
            t["attention.w_score"] *= w_scale
            s = embed(params, "language", rng.normal(size=(9, 6)))[0]
            sT = np.ascontiguousarray(s.T)
            q = t["attention.w1"].T @ sT
            for frames in (1, 2, 3, 10):
                h = embed(params, "vision", rng.normal(size=(frames, 6)))[0]
                p = h @ sT
                with np.errstate(all="raise"):
                    c, r, ub, lb = clip_bounds(params, h, p)
                    tight_ub, tight_lb = vertex_bounds(p, np.full(9, r))
                exact = additive_pair_scores(params, q, c[:, :, None], p, np.arange(9),
                                             np.zeros(9, dtype=int))
                case = (d_att, w2_scale, w_scale, frames)
                assert np.array_equal(c, h @ t["attention.w2"]), case
                want = [s_i @ attend(params, s_i, h)[0] for s_i in s]
                assert np.allclose(exact, want, rtol=0, atol=1e-12), case
                by_formula = np.array([_frame_bounds(params, s_i, h) for s_i in s]).T
                assert np.allclose([ub, lb], by_formula[:2], rtol=0, atol=1e-12), case
                assert np.isclose(r, np.exp(-by_formula[2][0]), rtol=1e-12, atol=0), case
                vertices = np.array([_vertex_extremes(p[:, i], by_formula[2][0])
                                     for i in range(9)]).T
                assert np.allclose([tight_ub, tight_lb], vertices, rtol=0, atol=1e-12), case
                assert (lb - 1e-12 <= tight_lb).all() and (tight_ub <= ub + 1e-12).all(), case
                assert (tight_lb - 1e-12 <= exact).all(), case
                assert (exact <= tight_ub + 1e-12).all(), case
                if w_scale > 1 and frames > 1:  # e^delta overflows: the frame extremes
                    assert np.array_equal(ub, p.max(axis=0)), case
                    assert np.array_equal(tight_lb, p.min(axis=0)), case


def test_adv_logit_modes():
    params = _model(mode="residual")
    params.tensors["disc.a_adv"][:] = [2.0]
    params.tensors["disc.b_adv"][:] = [0.5]
    assert np.isclose(adv_logit(params, 0.3, 0.8), 2.0 * 0.5 + 0.5)

    params = _model(mode="concat")
    params.tensors["disc.a_adv"][:] = [2.0, -1.0]
    params.tensors["disc.b_adv"][:] = [0.5]
    assert np.isclose(adv_logit(params, 0.3, 0.8), 2.0 * 0.8 - 1.0 * 0.3 + 0.5)

    params = _model(mode="adv_only")
    params.tensors["disc.a_adv"][:] = [2.0]
    params.tensors["disc.b_adv"][:] = [0.5]
    assert np.isclose(adv_logit(params, 0.3, 0.8), 2.0 * 0.8 + 0.5)
    # elementwise over arrays of pair scores
    got = adv_logit(params, np.array([0.3, 0.1]), np.array([0.8, -0.2]))
    assert np.allclose(got, [2.0 * 0.8 + 0.5, 2.0 * -0.2 + 0.5])


def test_sample_gumbel_moments():
    rng = np.random.default_rng(4)
    g = sample_gumbel(rng, size=100_000)
    assert np.all(np.isfinite(g))
    # Gumbel(0,1) mean is the Euler-Mascheroni constant
    assert abs(g.mean() - 0.5772156649) < 0.02


def test_sample_gate_soft_is_deterministic():
    # the soft gate takes no noise
    z, w = sample_gate(1.0, 0.5, "softmax_soft", None)
    assert w == pytest.approx(1.0 / (1.0 + np.exp(-2.0)))
    assert z == 1
    z, w = sample_gate(-1.0, 1.0, "softmax_soft", None)
    assert z == 0


def test_sample_gate_hard_with_pinned_noise():
    z, w = sample_gate(0.5, 1.0, "gumbel_hard", np.array([0.2, 0.1]))
    assert z == int(0.5 + 0.1 > 0.2) == 1
    assert w == pytest.approx(1.0 / (1.0 + np.exp(-0.4)))
    z, _ = sample_gate(-2.0, 1.0, "gumbel_hard", np.array([1.0, 0.5]))
    assert z == 0
    # one call gates a whole array of logits, with (..., 2) noise
    z, w = sample_gate(np.array([0.5, -2.0]), 1.0, "gumbel_hard",
                       np.array([[0.2, 0.1], [1.0, 0.5]]))
    assert z.tolist() == [1, 0]
    assert w[0] == pytest.approx(1.0 / (1.0 + np.exp(-0.4)))
    # noise from sample_gumbel: side 1 against side 0, at temperature tau
    f = np.array([0.3, -0.2, 1.0])
    g = sample_gumbel(np.random.default_rng(0), (3, 2))
    z, w = sample_gate(f, 0.5, "gumbel_hard", g)
    assert np.array_equal(z, (f + g[:, 1] - g[:, 0] > 0).astype(int))
    assert np.allclose(w, 1.0 / (1.0 + np.exp(-(f + g[:, 1] - g[:, 0]) / 0.5)), rtol=1e-12)


def test_init_model_shapes_and_validation():
    t = _model(kind="additive", mode="concat").tensors
    assert t["language.weight"].shape == (6, 5)
    assert t["attention.w1"].shape == (5, 5)  # d_att defaults to d_emb
    assert t["disc.a_adv"].shape == (2,)
    assert np.allclose(np.linalg.norm(t["disc.bvf"], axis=1), 1.0)

    custom = init_model(6, 5, "additive", "residual", 3,
                        np.random.default_rng(0), d_att=2)
    assert custom.tensors["attention.w_score"].shape == (2,)

    with pytest.raises(ModelError):
        init_model(6, 5, "bogus", "residual", 3, np.random.default_rng(0))
    with pytest.raises(ModelError):
        init_model(6, 5, "dot", "bogus", 3, np.random.default_rng(0))
    with pytest.raises(ModelError):
        init_model(0, 5, "dot", "residual", 3, np.random.default_rng(0))


def test_param_tensors_keys_and_views():
    params = _model(kind="dot")
    names = set(params.tensors)
    assert names == {
        "language.weight", "language.bias", "vision.weight", "vision.bias",
        "disc.bvf", "disc.a_adv", "disc.b_adv", "a_lvc", "b_lvc",
    }
    params = _model(kind="additive")
    assert {"attention.w1", "attention.w2", "attention.w_score"} <= set(params.tensors)
    params = _model(kind="multiplicative")
    params.tensors["attention.w_mult"][0, 0] = 123.0
    start = next(start for name, start, _, _ in params.layout if name == "attention.w_mult")
    assert params.flat[start] == 123.0  # views, not copies


def test_init_bvf_rows_unit_norm_and_deterministic():
    train, _ = generate_corpus(CorpusSpec(n_train=40, n_test=1, d=6, k=12, seed=1))
    params = _model()
    bank = params.tensors["disc.bvf"]
    before = bank.copy()
    init_bvf(params, train, np.random.default_rng(7))
    assert bank.shape == before.shape
    assert not np.array_equal(bank, before)
    assert np.allclose(np.linalg.norm(bank, axis=1), 1.0, atol=1e-12)

    again = _model()
    init_bvf(again, train, np.random.default_rng(7))
    assert np.array_equal(bank, again.tensors["disc.bvf"])



def test_init_bvf_matches_per_clip_oracle():
    # clips of 4 and 5 frames: each length group is longer than one chunk, so the
    # batched pooling crosses chunk edges; every bank value keeps its bits
    train, _ = generate_corpus(CorpusSpec(n_train=300, n_test=1, d=6, k=12, seed=4,
                                          frame_len_min=4, frame_len_max=5))
    lengths = [c.frames_raw.shape[0] for c in train]
    assert min(lengths.count(4), lengths.count(5)) > BLOCK_CLIPS
    params = _model(n_bvf=5, seed=6)
    want = reference_bank(params, train, np.random.default_rng(9))
    init_bvf(params, train, np.random.default_rng(9))
    assert params.tensors["disc.bvf"].tobytes() == want.tobytes()


def _assert_views_of_flat(params):
    """tensors is keyed by the layout names in layout order, every tensor is a
    slice of params.flat, and the slices tile flat exactly."""
    tensors = params.tensors
    assert list(tensors) == [name for name, _, _, _ in params.layout]
    for name, view in tensors.items():
        assert np.shares_memory(view, params.flat), name
    assert sum(v.size for v in tensors.values()) == params.flat.size


@pytest.mark.parametrize("kind", ATTENTION_KINDS)
@pytest.mark.parametrize("mode", INPUT_MODES)
def test_tensors_stay_views_of_flat_buffer(tmp_path, kind, mode):
    # an attention width unlike d_emb, which the checkpoint's meta must carry
    params = _model(kind=kind, mode=mode, d_att=2)
    _assert_views_of_flat(params)
    train, _ = generate_corpus(CorpusSpec(n_train=20, n_test=1, d=6, k=12, seed=2))
    init_bvf(params, train, np.random.default_rng(3))
    _assert_views_of_flat(params)
    path = tmp_path / "ck.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    _assert_views_of_flat(loaded)
    assert loaded.flat.tobytes() == params.flat.tobytes()


@pytest.mark.parametrize("kind,mode", [
    ("uniform", "residual"), ("dot", "adv_only"),
    ("multiplicative", "concat"), ("additive", "residual"),
])
def test_checkpoint_round_trip_exact(tmp_path, kind, mode):
    params = _model(kind=kind, mode=mode, seed=11)
    path = tmp_path / "ck.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    a, b = params.tensors, loaded.tensors
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name
    assert loaded.attention_kind == kind
    assert loaded.input_mode == mode


def test_checkpoint_rejects_bad_files(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("not json")
    with pytest.raises(ModelError):
        load_checkpoint(path)
    path.write_text('{"format": "other", "version": 1}')
    with pytest.raises(ModelError):
        load_checkpoint(path)

    params = _model()
    save_checkpoint(params, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="version"):
        load_checkpoint(path)

    doc["version"] = 1
    del doc["tensors"]["a_lvc"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="a_lvc"):
        load_checkpoint(path)

    save_checkpoint(params, path)
    doc = json.loads(path.read_text())
    doc["tensors"]["disc.bvf"]["shape"] = [1, 5]
    doc["tensors"]["disc.bvf"]["data"] = [1.0, 0, 0, 0, 0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="shape"):
        load_checkpoint(path)

    def edited(edit):
        save_checkpoint(_model(kind="additive", mode="concat"), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    cases = [
        (lambda doc: doc.pop("meta"), "meta"),
        (lambda doc: doc.update(meta=[1]), "meta"),
        (lambda doc: doc["meta"].pop("n_bvf"), "n_bvf"),
        (lambda doc: doc["meta"].update(d_in="6"), "d_in"),
        (lambda doc: doc["meta"].update(d_att=2.5), "d_att"),
        (lambda doc: doc["meta"].update(attention_kind=7), "attention kind"),
        (lambda doc: doc["meta"].update(input_mode=None), "input mode"),
        # a meta far larger than the file fails before anything is allocated
        (lambda doc: doc["meta"].update(d_emb=10**15), "more values"),
        (lambda doc: doc["tensors"]["vision.bias"]["data"].pop(), "vision.bias.*shape"),
        (lambda doc: doc["tensors"]["attention.w1"].update(data=[[1, 2]]), "attention.w1"),
        (lambda doc: doc["tensors"]["attention.w2"].update(data="x"), "attention.w2"),
        (lambda doc: doc["tensors"].update({"b_lvc": 5}), "b_lvc"),
        (lambda doc: doc["tensors"]["disc.a_adv"].update(shape=[1]), "disc.a_adv"),
    ]
    for edit, match in cases:
        with pytest.raises(ModelError, match=match):
            load_checkpoint(edited(edit))

    # a NaN loads as a ModelError, not as a silently dead embedding row
    save_checkpoint(params, path)
    doc = json.loads(path.read_text())
    doc["tensors"]["vision.weight"]["data"][3] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="vision.weight.*non-finite"):
        load_checkpoint(path)


def test_bvf_rows_are_unit_at_initialisation():
    # rows start unit; nothing projects them later (ModelParams)
    for mode in INPUT_MODES:
        for n_bvf in (1, 4, 64):
            params = init_model(6, 5, "dot", mode, n_bvf, np.random.default_rng(n_bvf))
            assert np.allclose(np.linalg.norm(params.tensors["disc.bvf"], axis=1), 1.0, atol=1e-12)
    train, _ = generate_corpus(CorpusSpec(n_train=40, n_test=1, d=6, k=12, seed=1))
    # more rows than clips leaves empty groups, and a dead vision channel pools
    # every clip to zero: both take the random unit fallback
    dead = _model()
    dead.tensors["vision.bias"][:] = -1e3
    for params, clips in ((_model(n_bvf=64), train), (dead, train), (_model(), train[:1])):
        init_bvf(params, clips, np.random.default_rng(3))
        assert np.allclose(np.linalg.norm(params.tensors["disc.bvf"], axis=1), 1.0, atol=1e-12)


def test_checkpoint_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "ck.json"
    save_checkpoint(_model(seed=1), path)
    before = path.read_bytes()

    def dump_half(doc, fh, **kwargs):
        text = json.dumps(doc, **kwargs)
        fh.write(text[:len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_half)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(_model(seed=2), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
