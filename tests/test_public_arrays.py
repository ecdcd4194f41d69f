"""The one argument rule of the public array API.

Every function ``fpbits`` exports that takes arrays checks them with
``errors.check_arrays``: dtype kind, rank, the sizes two arguments share and
finite floats. A wrong argument raises a typed ``FpbitsError``; an array-like
(a list, a list of rows) still works.
"""

import inspect
import warnings

import numpy as np
import pytest

import fpbits
from fpbits.config import PipelineConfig
from fpbits.errors import (EmptyEnrollment, EmptyImage, EmptyScores, FpbitsError,
                           LengthMismatch, PoolTooSmall)
from fpbits.local_structures import StructureGeometry
from fpbits.template_io import MINUTIA_DTYPE, GrayImage

RNG = np.random.default_rng(131)
GEOMETRY = StructureGeometry.from_config(PipelineConfig())
MINUTIAE = np.zeros(6, MINUTIA_DTYPE)
MINUTIAE["x"] = [12.0, 20.0, 31.0, 40.0, 25.0, 50.0]
MINUTIAE["y"] = [15.0, 44.0, 30.0, 22.0, 52.0, 35.0]
MINUTIAE["theta"] = [0.1, 1.2, 2.3, 3.4, 4.5, 5.6]
IMAGE = GrayImage(np.clip(RNG.normal(128.0, 40.0, size=(64, 64)), 0, 255).astype(np.uint8))
PCA = fpbits.train_pca(RNG.normal(size=(20, 6)), 3)
BITS = RNG.random((4, 10)) < 0.5
D = RNG.uniform(0.5, 3.0, size=(6, 5))
PAIR_ARGS = dict(min_pairs=2, max_pairs=5, midpoint=10.0, steepness=0.5)

# a valid call of every exported function that takes arrays: (function, arguments)
VALID_CALLS = {
    "train_finger": (fpbits.train_finger, dict(
        finger_id="f", distances=D[:4], bits=BITS[:, :5], minutia_counts=np.array([3, 4, 5, 6]),
        population_mean=D.mean(axis=0), cluster_weights=D[1] / 3.0, alpha=0.5, beta=1.0)),
    "kmeans_train": (fpbits.kmeans_train, dict(pool=RNG.normal(size=(20, 3)), k=3,
                                               max_iters=5, seed=0)),
    "mbls_matrix": (fpbits.mbls_matrix, dict(minutiae=MINUTIAE, geometry=GEOMETRY,
                                             refs=np.array([0, 2]))),
    "tbls_matrix": (fpbits.tbls_matrix, dict(minutiae=MINUTIAE, image=IMAGE, geometry=GEOMETRY)),
    "build_mbls": (fpbits.build_mbls, dict(minutiae=MINUTIAE, row=1, geometry=GEOMETRY)),
    "extract_tbls": (fpbits.extract_tbls, dict(minutiae=MINUTIAE, row=1, image=IMAGE,
                                               geometry=GEOMETRY)),
    "fold_bits": (fpbits.fold_bits, dict(bits=BITS, length=4)),
    "intersection_scores": (fpbits.intersection_scores, dict(a=BITS, b=BITS[::-1])),
    "lgs_score": (fpbits.lgs_score, dict(vectors_a=RNG.normal(size=(5, 4)),
                                         vectors_b=RNG.normal(size=(6, 4)), **PAIR_ARGS)),
    "masked_scores": (fpbits.masked_scores, dict(query=BITS, enrolled=BITS[::-1],
                                                 masks=~BITS, mask_both=True)),
    "compute_eer": (fpbits.compute_eer, dict(genuine=np.array([0.9, 0.8]),
                                             impostor=np.array([0.1, 0.2, 0.3]))),
    "fuse": (fpbits.fuse, dict(minutia_part=D[0], texture_part=D[1], weight_m=0.6,
                               weight_t=0.4)),
    "project": (fpbits.project, dict(model=PCA, vectors=RNG.normal(size=(4, 6)))),
    "train_pca": (fpbits.train_pca, dict(samples=RNG.normal(size=(10, 6)), n_components=2)),
}


def _takes_arrays(function):
    return any("ndarray" in str(p.annotation) or "Sequence[float]" in str(p.annotation)
               for p in inspect.signature(function).parameters.values())


def test_every_exported_array_function_has_a_valid_call():
    exported = {name for name, value in vars(fpbits).items()
                if inspect.isfunction(value) and _takes_arrays(value)}
    assert exported <= set(VALID_CALLS), sorted(exported - set(VALID_CALLS))
    for name, (function, args) in VALID_CALLS.items():
        function(**args)  # each valid call is valid


def _swaps(array, optional=False):
    """``(label, value)`` of each wrong value the fuzzer swaps in for ``array``; None is one
    unless the argument is ``optional``, None by default."""
    shape, ragged = array.shape, [[0.0, 1.0], [0.0]]
    swaps = [(f"{rank}-d", np.resize(array, (2,) * rank)) for rank in range(4)
             if rank != array.ndim]
    if array.dtype.kind == "f":  # finite values whose squares, sums or spreads overflow
        swaps += [("1e200", np.full(shape, 1e200)),
                  ("±1e200", np.resize([1e200, -1e200], shape))]
    if array.dtype == MINUTIA_DTYPE:  # finite positions whose separations overflow
        far = array.copy()
        far["x"] = far["y"] = np.resize([1e308, -1e308], shape)
        swaps.append(("±1e308 positions", far))
    return swaps + [
        ("empty", array[:0]),
        ("longer", np.resize(array, (shape[0] + 1,) + shape[1:])),
        ("wider", np.resize(array, shape[:-1] + (shape[-1] + 1,))),
        ("str", np.full(shape, "a")),
        ("object", np.ones(shape).astype(object)),
        ("complex", np.ones(shape, complex)),
        ("fields", np.zeros(shape, [("a", float)])),  # a structured dtype of other fields
        ("nan", np.full(shape, np.nan)),
        ("inf", np.full(shape, np.inf)),
        ("-inf", np.full(shape, -np.inf)),
        ("ragged", ragged),
    ] + ([] if optional else [("None", None)])


# swaps no function takes, with those of another rank: each is refused with a typed error
ALWAYS_REFUSED = {"str", "object", "complex", "fields", "nan", "inf", "-inf", "ragged", "None"}


def _cases():
    for name, (function, args) in sorted(VALID_CALLS.items()):
        for arg, value in args.items():
            if isinstance(value, np.ndarray):
                optional = inspect.signature(function).parameters[arg].default is None
                for label, wrong in _swaps(value, optional):
                    yield f"{name}.{arg} {label}", function, {**args, arg: wrong}, label


def test_fuzz_public_array_api_zero_untyped():
    # each array argument of each valid call swapped for a wrong one: the call
    # raises a typed error or returns; a swap no function takes is refused
    crashes, refused, cases = [], 0, 0
    for case, function, args, label in _cases():
        cases += 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                function(**args)
        except FpbitsError:
            refused += 1
            continue
        except Exception as exc:
            crashes.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        if label in ALWAYS_REFUSED or label.endswith("-d"):
            crashes.append(f"{case}: accepted")
    assert not crashes, f"{len(crashes)} of {cases} crashed, first: {crashes[:5]}"
    assert refused > cases // 2


def test_array_likes_keep_working():
    # lists give the bytes the arrays give
    def listed(value):
        plain = isinstance(value, np.ndarray) and value.dtype.names is None
        return value.tolist() if plain else value

    for name, (function, args) in sorted(VALID_CALLS.items()):
        listed_args = {arg: listed(value) for arg, value in args.items()}
        want, got = function(**args), function(**listed_args)
        if isinstance(want, tuple):
            assert all(np.array_equal(w, g) for w, g in zip(want, got)), name
        else:
            assert want == got if not isinstance(want, np.ndarray) else \
                want.tobytes() == got.tobytes(), name


@pytest.mark.parametrize("refs", [[6], [-7], [0, 6], [[0, 1]], [0.5]])
def test_mbls_refs_outside_the_impression_are_refused(refs):
    with pytest.raises(LengthMismatch):
        fpbits.mbls_matrix(MINUTIAE, GEOMETRY, refs=refs)


def test_mbls_refs_count_from_the_end_as_numpy_does():
    rows = fpbits.mbls_matrix(MINUTIAE, GEOMETRY)
    assert np.array_equal(fpbits.mbls_matrix(MINUTIAE, GEOMETRY, refs=[-1, -6]), rows[[5, 0]])


@pytest.mark.parametrize("row", [-6, -1, 0, 5])
def test_one_row_views_take_rows_as_numpy_does(row):
    assert np.array_equal(fpbits.build_mbls(MINUTIAE, row, GEOMETRY),
                          fpbits.mbls_matrix(MINUTIAE, GEOMETRY, refs=[row])[0])
    assert np.array_equal(fpbits.extract_tbls(MINUTIAE, row, IMAGE, GEOMETRY),
                          fpbits.tbls_matrix(MINUTIAE[[row]], IMAGE, GEOMETRY)[0])


@pytest.mark.parametrize("row", [-7, 6])
def test_one_row_views_refuse_a_row_outside_the_impression(row):
    with pytest.raises(LengthMismatch):
        fpbits.build_mbls(MINUTIAE, row, GEOMETRY)
    with pytest.raises(LengthMismatch):
        fpbits.extract_tbls(MINUTIAE, row, IMAGE, GEOMETRY)


def test_tbls_refuses_an_image_without_pixels():
    # a GrayImage holds at least one pixel, so such an image is refused as any non-image
    with pytest.raises(LengthMismatch, match="^image must be a GrayImage, got ndarray$"):
        fpbits.tbls_matrix(MINUTIAE, np.zeros((0, 64)), GEOMETRY)


@pytest.mark.parametrize("image", [np.zeros((4, 4)), IMAGE.pixels.tolist(), None],
                         ids=["array", "list", "None"])
def test_normalize_image_refuses_anything_but_an_image(image):
    with pytest.raises(LengthMismatch, match="^image must be a GrayImage"):
        fpbits.normalize_image(image)


@pytest.mark.parametrize("call", [
    lambda image: fpbits.tbls_matrix(MINUTIAE, image, GEOMETRY),
    lambda image: fpbits.extract_tbls(MINUTIAE, 1, image, GEOMETRY),
], ids=["tbls_matrix", "extract_tbls"])
@pytest.mark.parametrize("image", [IMAGE.pixels, IMAGE.pixels.tolist(), None],
                         ids=["array", "list", "None"])
def test_texture_extractors_refuse_anything_but_an_image(call, image):
    with pytest.raises(LengthMismatch, match="^image must be a GrayImage"):
        call(image)


STRING = fpbits.BitString(BITS[0])
FINGER = fpbits.train_finger("f", D[:2, :], BITS[:2, :5], [3, 4], D[0], D[1], 0.5, 1.0)


@pytest.mark.parametrize("call", [
    lambda wrong: fpbits.intersection_score(wrong, STRING),
    lambda wrong: fpbits.intersection_score(STRING, wrong),
    lambda wrong: fpbits.masked_score(wrong, FINGER, True),
    lambda wrong: fpbits.masked_score(fpbits.BitString(BITS[0, :5]), wrong, True),
    lambda wrong: fpbits.fold_compress(wrong, 4),
], ids=["intersection_score.a", "intersection_score.b", "masked_score.query",
        "masked_score.finger", "fold_compress"])
@pytest.mark.parametrize("wrong", [BITS[0], BITS[0].tolist(), None], ids=["array", "list", "None"])
def test_record_views_refuse_anything_but_their_record(call, wrong):
    with pytest.raises(LengthMismatch, match=r"^\w+ must be a (BitString|FingerModel), got "):
        call(wrong)


def train_finger_with(**wrong):
    """The valid ``train_finger`` call with the ``wrong`` arguments swapped in."""
    function, args = VALID_CALLS["train_finger"]
    return function(**{**args, **wrong})


@pytest.mark.parametrize("name, call", [
    ("float bits", lambda: fpbits.intersection_scores(BITS.astype(float), BITS)),
    ("int bits", lambda: fpbits.masked_scores(BITS.astype(int), BITS, BITS, True)),
    ("int fold", lambda: fpbits.fold_bits(BITS.astype(int), 4)),
    ("object bits", lambda: train_finger_with(bits=BITS[:, :5].astype(object))),
    ("2-d mean", lambda: train_finger_with(population_mean=D[:1])),  # would broadcast
    ("2-d weights", lambda: train_finger_with(cluster_weights=D[:2])),
])
def test_narrowed_arguments_are_refused_not_cast(name, call):
    with pytest.raises(LengthMismatch):
        call()


ALTERNATING = np.resize([1e200, -1e200], 5)


@pytest.mark.parametrize("argument, call", [
    ("vectors_a", lambda: fpbits.lgs_score(np.resize([1e154, -1e154], (5, 4)), D[:, :4],
                                           **PAIR_ARGS)),
    ("vectors_b", lambda: fpbits.lgs_score(D[:, :4], np.full((5, 4), 1e154), **PAIR_ARGS)),
    ("minutia_part", lambda: fpbits.fuse(ALTERNATING, D[1], 0.6, 0.4)),
    ("texture_part", lambda: fpbits.fuse(D[0], ALTERNATING, 0.6, 0.4)),
    ("population_mean", lambda: train_finger_with(population_mean=np.full(5, 1e200))),
    ("cluster_weights", lambda: train_finger_with(cluster_weights=np.full(5, 1e300),
                                                  population_mean=D.mean(axis=0) + 1e5)),
], ids=["lgs_score.a", "lgs_score.b", "fuse.m", "fuse.t", "train_finger.mean",
        "train_finger.weights"])
def test_finite_arguments_that_overflow_are_refused(argument, call):
    with pytest.raises(LengthMismatch, match=argument):
        call()


def test_mbls_separations_that_overflow_are_out_of_range():
    far = MINUTIAE.copy()
    far["x"] = far["y"] = np.resize([1e308, -1e308], len(far))
    rows = fpbits.mbls_matrix(far, GEOMETRY)
    # two groups of coincident minutiae: each minutia is a neighbour within its group only
    assert np.array_equal(rows[::2], fpbits.mbls_matrix(far[::2], GEOMETRY))
    assert np.array_equal(rows[1::2], fpbits.mbls_matrix(far[1::2], GEOMETRY))


@pytest.mark.parametrize("empty", [[], np.zeros(0), np.zeros((0, 5)), np.zeros((0, 5, 1))],
                         ids=["list", "1-d", "2-d", "3-d"])
@pytest.mark.parametrize("error, call", [
    (EmptyEnrollment, lambda e: fpbits.train_finger("f", e, e, e, D[0], D[1], 0.5, 1.0)),
    (EmptyEnrollment, lambda e: fpbits.train_finger("f", D[:4], e, [3, 4, 5, 6], D[0], D[1],
                                                    0.5, 1.0)),
    (EmptyImage, lambda e: fpbits.lgs_score(e, D, **PAIR_ARGS)),
    (EmptyImage, lambda e: fpbits.lgs_score(D, e, **PAIR_ARGS)),
    (PoolTooSmall, lambda e: fpbits.kmeans_train(e, 2, 5, 0)),
], ids=["train_finger", "train_finger.bits", "lgs_score.a", "lgs_score.b", "kmeans_train"])
def test_no_rows_keeps_its_error_at_any_rank(error, call, empty):
    # the at-least-one-row rule answers before the rank rule
    with pytest.raises(error):
        call(empty)


def test_score_lists_keep_their_error():
    with pytest.raises(EmptyScores, match="^genuine must be a float array"):
        fpbits.compute_eer(["a"], ["b"])
    with pytest.raises(EmptyScores, match="^impostor must hold finite numbers"):
        fpbits.compute_eer([0.5], [np.nan])
