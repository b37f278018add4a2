import pytest

from spans import Tracer, roots, self_times, totals_by_root

# [name, start, end, parent]: a step whose backward calls predict_batch,
# which encodes both sides, each with one gather; then adam
TREE = [
    ["train.step", 0.0, 10.0, -1],
    ["training.backward", 0.5, 8.0, 0],
    ["model.predict_batch", 1.0, 5.0, 1],
    ["model.encode_side.user", 1.0, 3.0, 2],
    ["data.gather", 1.0, 1.5, 3],
    ["model.encode_side.item", 3.0, 4.5, 2],
    ["data.gather", 3.0, 3.25, 5],
    ["training.adam_step", 8.0, 9.5, 0],
]


def test_self_time_is_duration_minus_children():
    assert self_times(TREE) == pytest.approx([1.0, 3.5, 0.5, 1.5, 0.5, 1.25, 0.25, 1.5])


def test_self_times_sum_to_root_duration():
    assert sum(self_times(TREE)) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_count_once():
    spans = [["p", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["b", 3.0, 6.0, 0],      # overlaps a by 1
             ["c", 2.0, 3.0, 0],      # inside a
             ["d", 9.0, 12.0, 0]]     # runs past the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_totals_by_root_groups_each_step():
    spans = TREE + [["evaluation.evaluate", 11.0, 12.0, -1]] \
        + [[n, s + 20, e + 20, p + 9 if p >= 0 else -1] for n, s, e, p in TREE]
    assert roots(spans)[9:11] == [9, 9]
    steps = totals_by_root(spans, "train.step")
    assert [root for root, _ in steps] == [0, 9]
    for _, by_name in steps:
        assert by_name["data.gather"] == (pytest.approx(0.75), 2)
        assert by_name["train.step"] == (pytest.approx(1.0), 1)


def test_tracer_nests_and_unpatches():
    from nrpa import model, training

    tracer = Tracer()
    original = model.predict_batch, training.AdamState.__dict__["for_params"]
    with tracer.patched():
        assert model.predict_batch is not original[0]
        outer = tracer.open("outer")
        tracer.close(tracer.open("inner"))
        tracer.close(outer)
    assert (model.predict_batch, training.AdamState.__dict__["for_params"]) == original
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0]
