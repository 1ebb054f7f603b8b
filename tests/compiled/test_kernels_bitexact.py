"""Compiled conv/FC kernels against the actors' own formulas, bit for bit.

The compiled conv kernel skips the all-pad subtrees of the zero-padded
product tree and folds a pad right half into one ``+ 0.0``; the FC
kernel streams its lane chains one step at a time. Both must still
produce the float32 *bit patterns* of the interpreted actors, so every
comparison here is on ``view(np.uint32)``, where ``-0.0`` and ``+0.0``
differ. The data is adversarial on purpose: all-zero windows
times negative weights make every product ``-0.0`` (only the pad adds
turn the tree sums back into ``+0.0``), and ``±inf`` leaves drive the
trees through ``inf`` and NaN.
"""

import numpy as np
import pytest

from repro.compiled import kernels
from repro.compiled.kernels import k_conv, k_fc
from repro.core.compute_core import ConvCoreActor
from repro.core.fc_core import FCCoreActor
from repro.hls.tree_adder import tree_reduce

F32 = np.float32

#: (in_ports, kh, kw): tree widths K = in_ports * kh * kw of 1, 2, 3, 9,
#: 25 and 121 (and a two-port 3x3, K = 18).
CONV_SHAPES = [
    (1, 1, 1),
    (2, 1, 1),
    (1, 1, 3),
    (1, 3, 3),
    (2, 3, 3),
    (1, 5, 5),
    (1, 11, 11),
]

DATA = ("negzero", "inf", "mixed")


def bits(a):
    return np.ascontiguousarray(a, dtype=F32).view(np.uint32)


def conv_data(kind, rng, in_ports, kh, kw, out_fm, groups, n_lanes):
    in_fm = in_ports * groups
    if kind == "negzero":
        # Every product is 0 * negative = -0.0; the bias is -0.0 too, so
        # an output is -0.0 unless a pad add canonicalized its tree.
        weight = -rng.uniform(0.5, 2.0, (out_fm, in_fm, kh, kw)).astype(F32)
        bias = np.full(out_fm, -0.0, dtype=F32)
        windows = np.zeros((in_ports, n_lanes * groups, kh, kw), dtype=F32)
        return weight, bias, windows
    weight = rng.standard_normal((out_fm, in_fm, kh, kw)).astype(F32)
    bias = rng.standard_normal(out_fm).astype(F32)
    windows = rng.standard_normal((in_ports, n_lanes * groups, kh, kw)).astype(F32)
    flat = windows.reshape(-1)
    if kind == "inf":
        idx = rng.choice(flat.size, size=max(2, flat.size // 50), replace=False)
        flat[idx[::2]] = np.inf
        flat[idx[1::2]] = -np.inf
    else:
        # Normal values mixed with +/-0.0, +/-inf, all-zero windows of
        # whole lanes, and zero or negative-zero biases.
        idx = rng.permutation(flat.size)
        quarter = flat.size // 4
        flat[idx[:quarter]] = 0.0
        flat[idx[quarter : 2 * quarter]] = -0.0
        flat[idx[2 * quarter : 2 * quarter + 3]] = [np.inf, -np.inf, np.inf]
        windows[:, : groups * 2] = 0.0
        weight[: out_fm // 2] = -np.abs(weight[: out_fm // 2])
        bias[::3] = 0.0
        bias[1::3] = -0.0
    return weight, bias, windows


def conv_reference(actor, windows):
    """The actor's per-coordinate formula, coordinate by coordinate."""
    groups = actor.in_groups
    n_lanes = actor.images * actor.n_coords
    out = np.empty((n_lanes, actor.out_fm), dtype=F32)
    for n in range(n_lanes):
        # wins[g, 0] = the raveled windows of every port, in port order.
        wins = np.stack(
            [
                np.concatenate(
                    [windows[p, n * groups + g].ravel() for p in range(actor.in_ports)]
                )
                for g in range(groups)
            ]
        )[:, None, :]
        trees = tree_reduce(actor._w_all * wins)
        acc = actor.bias
        for g in range(groups):
            acc = acc + trees[g]
        out[n] = actor._act(acc)
    return out


def run_conv(kind, in_ports, kh, kw, out_ports, groups, n_coords, out_fm,
             activation=None, seed=0):
    rng = np.random.default_rng(seed)
    weight, bias, windows = conv_data(
        kind, rng, in_ports, kh, kw, out_fm, groups, n_coords
    )
    actor = ConvCoreActor(
        "conv", weight, bias, in_ports, out_ports, n_coords,
        activation=activation,
    )
    with np.errstate(invalid="ignore", over="ignore"):
        got = k_conv(actor, {f"in{p}": windows[p] for p in range(in_ports)})
        ref = conv_reference(actor, windows)
    for p in range(out_ports):
        want = ref[:, p::out_ports].reshape(-1)
        assert np.array_equal(bits(got[f"out{p}"]), bits(want)), (
            f"out{p}: {np.count_nonzero(bits(got[f'out{p}']) != bits(want))} "
            f"of {want.size} values differ in their bit pattern"
        )
    return ref


def plane_bytes(n_lanes, out_fm):
    return n_lanes * out_fm * np.dtype(F32).itemsize


@pytest.mark.parametrize("kind", DATA)
@pytest.mark.parametrize("out_ports", [1, 2])
@pytest.mark.parametrize("in_ports,kh,kw", CONV_SHAPES)
@pytest.mark.parametrize("n_coords,out_fm", [(12, 8), (4, 16)])
def test_conv_matches_actor_formula(
    monkeypatch, kind, out_ports, in_ports, kh, kw, n_coords, out_fm
):
    # Two groups per block, five groups: blocks of 2, 2 and 1, with more
    # lanes than OUT_FM rows and fewer.
    monkeypatch.setattr(
        kernels, "_CONV_BLOCK_BYTES", 2 * plane_bytes(n_coords, out_fm)
    )
    run_conv(kind, in_ports, kh, kw, out_ports, 5, n_coords, out_fm)


def test_negzero_windows_expose_the_pad_adds(monkeypatch):
    # Power-of-two trees have no pad and keep the -0.0 sums; every other
    # width must canonicalize them to +0.0 exactly like the padded tree.
    monkeypatch.setattr(kernels, "_CONV_BLOCK_BYTES", plane_bytes(4, 8))
    for in_ports, kh, kw in CONV_SHAPES:
        ref = run_conv("negzero", in_ports, kh, kw, 1, 3, 4, 8)
        k = in_ports * kh * kw
        want = -0.0 if k & (k - 1) == 0 else 0.0
        assert np.all(bits(ref) == bits(np.full(ref.shape, want, F32))), k


@pytest.mark.parametrize("kind", DATA)
def test_conv_default_block_size_needs_several_blocks(kind):
    # The real block constant: 40 lanes x 64 OUT_FM planes, so 53 groups
    # need more than one (uneven) group block.
    n_coords, out_fm, groups = 40, 64, 53
    gb = kernels._CONV_BLOCK_BYTES // plane_bytes(n_coords, out_fm)
    assert 1 <= gb < groups and groups % gb
    run_conv(kind, 1, 3, 3, 2, groups, n_coords, out_fm)


@pytest.mark.parametrize("kind", DATA)
@pytest.mark.parametrize("n_coords,out_fm", [(12, 8), (4, 16)])
@pytest.mark.parametrize("block_rows", [3, 0])
def test_conv_row_blocks(monkeypatch, kind, n_coords, out_fm, block_rows):
    # A plane smaller than one group's (OUT_FM, lanes) product: OUT_FM
    # rows are split into uneven blocks of 3 (3, 3, 2 or five 3s and a
    # 1) with one group each, or into single rows when even one row
    # exceeds the cap.
    row_bytes = plane_bytes(n_coords, 1)
    monkeypatch.setattr(kernels, "_CONV_BLOCK_BYTES", max(1, block_rows * row_bytes))
    run_conv(kind, 2, 3, 3, 2, 3, n_coords, out_fm)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_conv_activation(activation):
    for n_coords, out_fm in ((12, 8), (4, 16)):
        run_conv("mixed", 1, 3, 3, 2, 4, n_coords, out_fm, activation=activation)


def fc_reference(actor, x):
    """The actor's per-input lane recurrence, image by image."""
    out = []
    for img in x:
        partial = np.zeros((actor.out_fm, actor.acc_lanes), dtype=F32)
        for i in range(actor.in_fm):
            lane = i % actor.acc_lanes
            partial[:, lane] = (
                partial[:, lane] + actor.weight[:, i] * F32(img[i])
            ).astype(F32)
        out.append(actor._act((tree_reduce(partial) + actor.bias).astype(F32)))
    return np.stack(out)


@pytest.mark.parametrize("kind", DATA)
@pytest.mark.parametrize("in_fm,lanes", [(29, 12), (36, 12), (7, 12), (30, 4)])
@pytest.mark.parametrize("images", [1, 3])
def test_fc_matches_actor_formula(kind, in_fm, lanes, images):
    rng = np.random.default_rng(in_fm * 100 + lanes)
    out_fm = 6
    x = rng.standard_normal((images, in_fm)).astype(F32)
    weight = rng.standard_normal((out_fm, in_fm)).astype(F32)
    bias = rng.standard_normal(out_fm).astype(F32)
    if kind == "negzero":
        # Every term is -0.0: step 0's `0 + t` must canonicalize it.
        x[:] = 0.0
        weight = -np.abs(weight)
        bias[:] = -0.0
    elif kind == "inf":
        x[:, 1] = np.inf
        x[:, -1] = -np.inf
    else:
        x[:, ::3] = -0.0
        weight[::2, 1::3] = -np.abs(weight[::2, 1::3])
        x[0, 2] = np.inf
        bias[::2] = -0.0
    actor = FCCoreActor("fc", weight, bias, acc_lanes=lanes, images=images)
    with np.errstate(invalid="ignore", over="ignore"):
        got = k_fc(actor, {"in": x.reshape(-1)})["out"]
        want = fc_reference(actor, x).reshape(-1)
    assert np.array_equal(bits(got), bits(want))
