"""Release acceptance gate: ten end-to-end criteria, one test each.

Every test appends one PASS/FAIL line to the terminal summary (see
``pytest_terminal_summary`` in conftest.py), so a full run prints a ten-line
scorecard.  The heavyweight pieces — toy datasets, trained models, ablation
sweeps — live in session-scoped fixtures and are shared across criteria.

The toy corpus is 8 smooth random 31-band 64x64 cubes (6 train / 2 test).
Training data for the gain and ablation criteria uses a noisy degradation
(sigma = 0.05 on the x4-downsampled patches): with smooth low-rank spectra,
band-coupled denoising is something the network can learn quickly but plain
bicubic upsampling cannot do at all, which makes the bicubic-relative gain a
meaningful signal at desk scale.  The uncertainty-trend criterion instead
uses a clean x4 dataset and a longer-trained small model, where the per-pixel
error is dominated by the model rather than by input noise — sample spread
then actually predicts reconstruction error.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from hssr.cli import main
from hssr.evaluate import mc_infer, mpsnr, mssim, sam
from hssr.gating import sample_hard, sample_soft
from hssr.hsdata import (
    DatasetManifest,
    HSCube,
    extract_patches,
    make_lr,
    random_smooth_cube,
    write_cube,
    write_manifest,
)
from hssr.model import NetConfig, build_net, forward, parameters, unit_forward
from hssr.tensor import Tensor, bicubic_resize_array
from hssr.train import TrainConfig, train

from helpers import (
    directional_fd_check,
    float64_net,
    gradcheck_all_ops,
    init_gate,
    percent,
    uncertainty,
)
from oracles import mpsnr_loop, mssim_loop, sam_loop, uncertainty_loop
from reference_net import extract_params, reference_forward

CORPUS_SEED = 20240819
NOISE_SEED = 7
NOISE_SIGMA = 0.05
ALPHA = 4


@contextmanager
def criterion(results, num, label):
    """Record one scorecard line; the assertion failure (if any) propagates."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        results.append((num, label, False, info["detail"]))
        raise
    results.append((num, label, True, info["detail"]))


@pytest.fixture(scope="session")
def acceptance_log(request):
    import conftest

    return conftest.ACCEPTANCE_RESULTS


# ---------------------------------------------------------------------------
# shared toy data and trained models


@pytest.fixture(scope="session")
def corpus():
    """8 main cubes (6 train / 2 test) plus 8 extra evaluation-only cubes."""
    rng = np.random.default_rng(np.random.SeedSequence(CORPUS_SEED))
    main_cubes = [random_smooth_cube(31, 64, 64, rng, name=f"cube{i}") for i in range(8)]
    extra = [random_smooth_cube(31, 64, 64, rng, name=f"extra{i}") for i in range(8)]
    return main_cubes, extra


def _write_pairs(root, cubes, noise_rng, sigma):
    man = DatasetManifest(scale=ALPHA, patch=32, stride=16, seed=0)
    (root / "hr/train").mkdir(parents=True)
    (root / "lr/train").mkdir(parents=True)
    for cube in cubes:
        for patch in extract_patches(cube, 32, 16):
            write_cube(patch, root / "hr/train" / f"{patch.name}.hsc")
            write_cube(
                make_lr(patch, ALPHA, sigma, noise_rng),
                root / "lr/train" / f"{patch.name}.hsc",
            )
            man.entries.append((f"hr/train/{patch.name}.hsc", "train"))
    return man


@pytest.fixture(scope="session")
def noisy_dataset(corpus, tmp_path_factory):
    """Noisy-degradation training tree plus the 2 held-out test cubes."""
    main_cubes, _ = corpus
    root = tmp_path_factory.mktemp("toy-noisy")
    noise_rng = np.random.default_rng(np.random.SeedSequence(NOISE_SEED))
    man = _write_pairs(root, main_cubes[:6], noise_rng, NOISE_SIGMA)
    test_hr = main_cubes[6:]
    test_lr = [make_lr(c, ALPHA, NOISE_SIGMA, noise_rng) for c in test_hr]
    return root, man, test_hr, test_lr


@pytest.fixture(scope="session")
def clean_dataset(corpus, tmp_path_factory):
    """Clean training tree plus 10 evaluation cubes (2 held-out + 8 extra)."""
    main_cubes, extra = corpus
    root = tmp_path_factory.mktemp("toy-clean")
    man = _write_pairs(root, main_cubes[:6], None, 0.0)
    eval_hr = main_cubes[6:] + extra
    eval_lr = [make_lr(c, ALPHA) for c in eval_hr]
    return root, man, eval_hr, eval_lr


@pytest.fixture(scope="session")
def toy_model(noisy_dataset, tmp_path_factory):
    """The headline toy model: C=32, J=3, T=4, 5 warm-up + 20 main epochs."""
    root, man, _, _ = noisy_dataset
    net_cfg = NetConfig(bands=31, scale=ALPHA, stages=4, units_per_stage=3, channels=32)
    cfg = TrainConfig(lr0=1e-3, warmup_epochs=5, main_epochs=20, batch=4, seed=1)
    out = tmp_path_factory.mktemp("toy-run")
    t0 = time.perf_counter()
    net, _history = train(man, net_cfg, cfg, out, base_dir=root)
    return net, time.perf_counter() - t0


@pytest.fixture(scope="session")
def uncertainty_model(clean_dataset, tmp_path_factory):
    """Smaller model trained longer on clean data, for the error-trend check."""
    root, man, _, _ = clean_dataset
    net_cfg = NetConfig(bands=31, scale=ALPHA, stages=2, units_per_stage=2, channels=16)
    cfg = TrainConfig(
        lr0=1e-3, warmup_epochs=2, main_epochs=38, batch=4, seed=3,
        augment=False, halve_every=100,
    )
    net, _history = train(man, net_cfg, cfg, tmp_path_factory.mktemp("clean-run"), base_dir=root)
    return net


def _expect_score(net, test_hr, test_lr):
    """Deterministic expectation-mode MPSNR averaged over the test cubes."""
    vals = []
    for hr, lr in zip(test_hr, test_lr):
        y_hat, _ = forward(net, Tensor(lr.values[None]), "expect")
        vals.append(mpsnr(np.clip(y_hat.data[0], 0.0, 1.0), hr))
    return float(np.mean(vals))


@pytest.fixture(scope="session")
def ablation_scores(noisy_dataset, tmp_path_factory):
    """Expectation-mode MPSNR for (stages, lambda) arms over three seeds.

    The T=4 lambda=1 run is shared between the depth sweep and the
    consistency-loss sweep.
    """
    root, man, test_hr, test_lr = noisy_dataset
    out_root = tmp_path_factory.mktemp("ablations")
    scores = {}
    for seed in (1, 2, 3):
        for stages, lam in ((2, 1.0), (4, 1.0), (4, 0.0)):
            net_cfg = NetConfig(
                bands=31, scale=ALPHA, stages=stages, units_per_stage=2, channels=16
            )
            cfg = TrainConfig(
                lr0=1e-3, warmup_epochs=5, main_epochs=20, batch=4, seed=seed, lam=lam
            )
            out = out_root / f"T{stages}_lam{int(lam)}_s{seed}"
            net, _ = train(man, net_cfg, cfg, out, base_dir=root)
            scores[(stages, lam, seed)] = _expect_score(net, test_hr, test_lr)
    return scores


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_gradient_integrity(acceptance_log):
    with criterion(acceptance_log, 1, "reverse-mode gradients match finite differences") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        op_worst = gradcheck_all_ops(trials=2, rng=rng)  # 2 instances per op case
        n_ops = 2 * len(op_worst)

        cfg = NetConfig(bands=3, scale=2, stages=2, units_per_stage=2, channels=8)
        net = float64_net(cfg, np.random.default_rng(5))
        # the two modes the optimizer actually differentiates through;
        # in the inference modes the mask is a constant by design, so finite
        # differences over the gate logits would measure a non-existent path
        modes = ("train", "warmup")
        n_net = 50
        worst = 0.0
        for i in range(n_net):
            x = rng.uniform(0.0, 1.0, (1, 3, 6, 6))
            y = rng.uniform(0.0, 1.0, (1, 3, 12, 12))
            # three step sizes: an FD step can straddle a relu/L1 kink at any
            # one scale, but a real backward bug disagrees at every scale
            err = directional_fd_check(
                net, x, y, lam=1.0, mode=modes[i % 2], gate_seed=100 + i, rng=rng,
                steps=(1e-4, 3e-5, 1e-5),
            )
            assert err < 1e-3, f"net instance {i}: rel err {err:.2e}"
            worst = max(worst, err)
        secs = time.perf_counter() - t0
        assert secs < 120.0, f"gradient checks took {secs:.0f}s"
        info["detail"] = (
            f"{n_ops} op + {n_net} net instances, worst rel err "
            f"{max(worst, max(op_worst.values())):.1e}, {secs:.0f}s"
        )


def test_criterion_02_sampler_fidelity(acceptance_log):
    with criterion(acceptance_log, 2, "gate sampling frequencies track keep probability") as info:
        rng = np.random.default_rng(2024)
        draws, channels = 100, 100  # 10,000 Bernoulli samples per probability
        worst = 0.0
        for p in (0.2, 0.5, 0.8):
            gate = init_gate("g", channels, keep_prob=p, tau=0.01)
            soft = np.mean(
                [sample_soft(gate, rng).data > 0.5 for _ in range(draws)]
            )
            hard = np.mean([sample_hard(gate, rng).data for _ in range(draws)])
            assert abs(soft - p) <= 0.02, f"soft keep rate {soft:.4f} for p={p}"
            assert abs(hard - p) <= 0.02, f"hard keep rate {hard:.4f} for p={p}"
            worst = max(worst, abs(soft - p), abs(hard - p))
        info["detail"] = f"10,000 draws per p, worst |freq - p| = {worst:.4f}"


def test_criterion_03_template_equivalence(acceptance_log):
    with criterion(acceptance_log, 3, "warm-up forward equals gate-free reference") as info:
        cfg = NetConfig(bands=3, scale=2, stages=2, units_per_stage=2, channels=8)
        net = float64_net(cfg, np.random.default_rng(3))
        x = np.random.default_rng(17).uniform(0.0, 1.0, (2, 3, 8, 8))
        y_hat, x_hat = forward(net, Tensor(x), "warmup")
        ref_y, ref_x = reference_forward(
            extract_params(net),
            {"scale": 2, "stages": 2, "units_per_stage": 2, "channels": 8},
            x,
        )
        dev = max(np.abs(y_hat.data - ref_y).max(), np.abs(x_hat.data - ref_x).max())
        assert dev < 1e-6, f"max deviation {dev:.2e}"
        info["detail"] = f"max abs deviation {dev:.1e}"


def test_criterion_04_degenerate_reductions(acceptance_log):
    with criterion(acceptance_log, 4, "zero weights give bicubic; closed gates give identity"):
        rng = np.random.default_rng(21)
        cfg = NetConfig(bands=3, scale=2, stages=2, units_per_stage=2, channels=8)

        net = build_net(cfg, np.random.default_rng(1))
        for p in parameters(net):
            if not p.name.endswith(("gate_k", "gate_l")):
                p.data = np.zeros_like(p.data)
        x = rng.uniform(0.0, 1.0, (1, 3, 6, 6)).astype(np.float32)
        want = bicubic_resize_array(x, 12, 12)
        for mode in ("warmup", "train", "sample", "expect"):
            y_hat, _ = forward(net, Tensor(x), mode, rng=np.random.default_rng(7))
            np.testing.assert_array_equal(y_hat.data, want, err_msg=mode)

        net = build_net(cfg, np.random.default_rng(2))
        for p in parameters(net):
            if p.name.endswith(("gate_k", "gate_l")):
                p.data[:] = -1e9  # keep probability exactly 0
        feats = rng.uniform(0.1, 0.9, (2, 8, 6, 6)).astype(np.float32)
        unit = net.stages[0].units[0]
        for mode in ("sample", "expect"):
            out = unit_forward(unit, Tensor(feats), mode, rng=np.random.default_rng(9))
            np.testing.assert_array_equal(out.data, feats, err_msg=mode)


def test_criterion_05_toy_training_gain(acceptance_log, toy_model, noisy_dataset):
    with criterion(acceptance_log, 5, "toy training beats bicubic by >= 0.5 dB") as info:
        net, train_secs = toy_model
        _, _, test_hr, test_lr = noisy_dataset
        base = float(np.mean([
            mpsnr(
                np.clip(
                    bicubic_resize_array(lr.values.astype(np.float64), 64, 64), 0.0, 1.0
                ),
                hr,
            )
            for hr, lr in zip(test_hr, test_lr)
        ]))
        model = float(np.mean([
            mpsnr(mc_infer(net, lr, 10, seed=0)[0], hr)
            for hr, lr in zip(test_hr, test_lr)
        ]))
        gain = model - base
        assert train_secs < 1800.0, f"training took {train_secs:.0f}s"
        assert gain >= 0.5, f"gain {gain:+.3f} dB over bicubic {base:.3f} dB"
        info["detail"] = (
            f"bicubic {base:.2f} dB, model {model:.2f} dB, gain {gain:+.2f} dB, "
            f"trained in {train_secs:.0f}s"
        )


def test_criterion_06_mc_sampling_trend(acceptance_log, toy_model, noisy_dataset):
    with criterion(acceptance_log, 6, "MPSNR is non-decreasing in MC sample count") as info:
        net, _ = toy_model
        _, _, test_hr, test_lr = noisy_dataset
        counts = (1, 2, 5, 10)
        means, stds = [], []
        for n in counts:
            vals = [
                np.mean([
                    mpsnr(mc_infer(net, lr, n, seed=s)[0], hr)
                    for hr, lr in zip(test_hr, test_lr)
                ])
                for s in range(5)
            ]
            means.append(float(np.mean(vals)))
            stds.append(float(np.std(vals)))
        assert means[counts.index(5)] >= means[counts.index(1)], (
            f"N=5 mean {means[2]:.4f} < N=1 mean {means[0]:.4f}"
        )
        for i in range(len(counts) - 1):
            assert means[i + 1] >= means[i] - stds[i], (
                f"N={counts[i + 1]} mean {means[i + 1]:.4f} dropped more than one "
                f"sigma below N={counts[i]} mean {means[i]:.4f} (sigma {stds[i]:.4f})"
            )
        info["detail"] = ", ".join(
            f"N={n}: {m:.3f} dB" for n, m in zip(counts, means)
        )


def test_criterion_07_ablation_trends(acceptance_log, ablation_scores):
    with criterion(acceptance_log, 7, "depth and consistency-loss ablation trends hold") as info:
        depth_margins, lam_margins = [], []
        for seed in (1, 2, 3):
            t4 = ablation_scores[(4, 1.0, seed)]
            depth_margins.append(t4 - ablation_scores[(2, 1.0, seed)])
            lam_margins.append(t4 - ablation_scores[(4, 0.0, seed)])
            assert depth_margins[-1] >= -0.05, (
                f"seed {seed}: T=4 trails T=2 by {-depth_margins[-1]:.3f} dB"
            )
            assert lam_margins[-1] >= -0.05, (
                f"seed {seed}: lambda=1 trails lambda=0 by {-lam_margins[-1]:.3f} dB"
            )
        info["detail"] = (
            f"T4-T2 margins {['%+.2f' % m for m in depth_margins]}, "
            f"lam1-lam0 margins {['%+.2f' % m for m in lam_margins]} dB"
        )


def test_criterion_08_metric_oracles(acceptance_log):
    with criterion(acceptance_log, 8, "quality metrics match loop oracles") as info:
        rng = np.random.default_rng(23)
        worst_p = worst_s = worst_a = 0.0
        for _ in range(3):
            pred = rng.uniform(0.0, 1.0, (5, 24, 24))
            ref = rng.uniform(0.0, 1.0, (5, 24, 24))
            worst_p = max(worst_p, abs(mpsnr(pred, ref) - mpsnr_loop(pred, ref)))
            worst_s = max(worst_s, abs(mssim(pred, ref) - mssim_loop(pred, ref)))
            worst_a = max(worst_a, abs(sam(pred, ref) - sam_loop(pred, ref)))
        assert worst_p <= 1e-6, f"mpsnr off oracle by {worst_p:.2e} dB"
        assert worst_s <= 1e-5, f"mssim off oracle by {worst_s:.2e}"
        assert worst_a <= 1e-6, f"sam off oracle by {worst_a:.2e} deg"

        same = rng.uniform(0.0, 1.0, (4, 16, 16))
        assert mpsnr(same, same) == 100.0
        assert mssim(same, same) == 1.0
        assert sam(same, same) == 0.0
        scaled = sam(3.7 * same, same)
        assert scaled <= 1e-6, f"sam not scale invariant: {scaled:.2e} deg"
        info["detail"] = (
            f"worst oracle gaps: mpsnr {worst_p:.1e} dB, mssim {worst_s:.1e}, "
            f"sam {worst_a:.1e} deg"
        )


def test_criterion_09_uncertainty(acceptance_log, uncertainty_model, clean_dataset):
    with criterion(acceptance_log, 9, "uncertainty maps are exact and track error") as info:
        net = uncertainty_model
        _, _, eval_hr, eval_lr = clean_dataset

        mean, samples = mc_infer(net, eval_lr[0], 8, seed=3)
        values = percent(uncertainty(samples, mean), 8)
        oracle = uncertainty_loop([s.values for s in samples], mean.values)
        np.testing.assert_array_equal(values, oracle)
        quanta = values / (100.0 / 8)
        assert np.array_equal(quanta, np.round(quanta)), "values not multiples of 100/N"

        pooled_u, pooled_e = [], []
        for hr, lr in zip(eval_hr, eval_lr):
            mean, samples = mc_infer(net, lr, 10, seed=0)
            values = percent(uncertainty(samples, mean), 10)
            err = np.abs(mean.values.astype(np.float64) - hr.values.astype(np.float64))
            pooled_u.append(values.ravel())
            pooled_e.append(err.ravel())
        u = np.concatenate(pooled_u)
        e = np.concatenate(pooled_e)
        prev = None
        bins = 0
        for level in np.unique(u):
            mask = u == level
            if mask.sum() < 100:
                continue
            cur = float(e[mask].mean())
            if prev is not None:
                assert cur >= prev, (
                    f"bin S={level:.0f} mean error {cur:.5f} fell below "
                    f"previous bin's {prev:.5f}"
                )
            prev = cur
            bins += 1
        assert bins >= 5, f"only {bins} populated uncertainty bins"
        info["detail"] = f"oracle exact, {bins} bins weakly monotone over {u.size:,} pixels"


def _run_pipeline(dst: Path) -> dict:
    """Prepare, train, super-resolve, export uncertainty, and score; return
    every artifact that must be reproducible, keyed by relative name."""
    src = dst / "src"
    src.mkdir(parents=True)
    rng = np.random.default_rng(np.random.SeedSequence(99))
    man = DatasetManifest(scale=2, patch=16, stride=16, seed=0)
    for i, role in enumerate(("train", "train", "train", "test")):
        cube = HSCube(rng.uniform(0.0, 1.0, (4, 16, 16)).astype(np.float32), name=f"c{i}")
        write_cube(cube, src / f"c{i}.hsc")
        man.entries.append((f"c{i}.hsc", role))
    write_manifest(man, src / "manifest.txt")

    data, run = dst / "data", dst / "run"
    assert main([
        "prepare", "--manifest", str(src / "manifest.txt"), "--scale", "2",
        "--patch", "16", "--stride", "16", "--noise-sigma", "0.02", "--seed", "3",
        "--out", str(data),
    ]) == 0
    (data / "run.cfg").write_text(
        "manifest=manifest.txt\nstages=2\nunits_per_stage=1\nchannels=4\n"
        "lr0=1e-3\nwarmup_epochs=1\nmain_epochs=2\nbatch=4\nseed=5\n"
    )
    assert main(["train", "--config", str(data / "run.cfg"), "--out", str(run)]) == 0
    assert main([
        "sr", "--checkpoint", str(run / "checkpoint.pdec"),
        "--input", str(data / "lr" / "test"), "--n-samples", "3", "--seed", "11",
        "--out", str(dst / "pred"),
    ]) == 0
    assert main([
        "uncertainty", "--checkpoint", str(run / "checkpoint.pdec"),
        "--input", str(data / "lr" / "test"), "--n-samples", "4", "--seed", "13",
        "--out", str(dst / "umap"),
    ]) == 0
    assert main([
        "eval", "--pred-dir", str(dst / "pred"), "--gt-dir", str(data / "hr" / "test"),
        "--report", str(dst / "report.csv"),
        "--baseline-bicubic", str(data / "lr" / "test"),
    ]) == 0

    artifacts = {
        "checkpoint": (run / "checkpoint.pdec").read_bytes(),
        "manifest": (data / "manifest.txt").read_bytes(),
        "report": (dst / "report.csv").read_bytes(),
        "report_bicubic": (dst / "report_bicubic.csv").read_bytes(),
    }
    for sub in ("pred", "umap"):
        for f in sorted((dst / sub).iterdir()):
            artifacts[f"{sub}/{f.name}"] = f.read_bytes()
    return artifacts


def test_criterion_10_reproducibility(acceptance_log, tmp_path, capsys):
    with criterion(acceptance_log, 10, "identical seeds reproduce every artifact") as info:
        first = _run_pipeline(tmp_path / "a")
        second = _run_pipeline(tmp_path / "b")
        capsys.readouterr()
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        info["detail"] = f"{len(first)} artifacts byte-identical across two runs"
