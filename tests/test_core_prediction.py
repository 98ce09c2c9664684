"""Unit tests for the temporal uncleanliness test (repro.core.prediction)."""

import numpy as np
import pytest

from repro.core.prediction import (
    BETTER_PREDICTOR_LEVEL,
    prediction_test,
    prediction_test_blocks,
)
from repro.core.report import Report


def persistent_networks(tag, blocks, offset, count_per_block=5):
    """Addresses in fixed /24s (persistently unclean space)."""
    addrs = [
        f"77.1.{b}.{offset + k}" for b in range(blocks) for k in range(count_per_block)
    ]
    return Report.from_addresses(tag, addrs)


def wide_control(count=5000, seed=0):
    rng = np.random.default_rng(seed)
    octets = rng.integers(60, 200, size=count)
    addrs = (octets.astype(np.uint32) << 24) | rng.integers(
        0, 2**24, size=count, dtype=np.uint32
    )
    return Report.from_addresses("control", addrs)


class TestPredictionTest:
    def test_persistent_past_predicts_present(self, rng):
        past = persistent_networks("past", blocks=20, offset=1)
        present = persistent_networks("present", blocks=20, offset=100)
        result = prediction_test(
            past, present, wide_control(), rng, prefixes=(24,), subsets=50
        )
        assert result.better_predictor(24)
        assert result.hypothesis_holds()
        assert result.observed[24] == 20

    def test_unrelated_past_does_not_predict(self, rng):
        past = persistent_networks("past", blocks=20, offset=1)
        # Present activity in entirely different space.
        present = Report.from_addresses(
            "present", [f"150.2.{b}.7" for b in range(20)]
        )
        result = prediction_test(
            past, present, wide_control(), rng, prefixes=(24,), subsets=50
        )
        assert result.observed[24] == 0
        assert not result.better_predictor(24)

    def test_exceedance_in_unit_interval(self, rng):
        past = persistent_networks("past", blocks=5, offset=1)
        present = persistent_networks("present", blocks=5, offset=50)
        result = prediction_test(
            past, present, wide_control(), rng, prefixes=(16, 24), subsets=20
        )
        for value in result.exceedance.values():
            assert 0.0 <= value <= 1.0

    def test_predictive_range(self, rng):
        past = persistent_networks("past", blocks=20, offset=1)
        present = persistent_networks("present", blocks=20, offset=100)
        result = prediction_test(
            past, present, wide_control(), rng, prefixes=(22, 23, 24), subsets=50
        )
        assert result.predictive_range() == (22, 24)
        assert result.predictive_prefixes() == [22, 23, 24]

    def test_no_predictive_range_when_nothing_wins(self, rng):
        past = persistent_networks("past", blocks=3, offset=1)
        present = Report.from_addresses("present", ["150.0.0.1"])
        result = prediction_test(
            past, present, wide_control(), rng, prefixes=(24,), subsets=20
        )
        assert result.predictive_range() is None

    def test_custom_level(self, rng):
        past = persistent_networks("past", blocks=20, offset=1)
        present = persistent_networks("present", blocks=20, offset=100)
        result = prediction_test(
            past, present, wide_control(), rng, prefixes=(24,), subsets=50
        )
        # A lax level can only widen the predictive set.
        assert set(result.predictive_prefixes(level=0.5)) >= set(
            result.predictive_prefixes(level=BETTER_PREDICTOR_LEVEL)
        )

    def test_rows_structure(self, rng):
        past = persistent_networks("past", blocks=4, offset=1)
        present = persistent_networks("present", blocks=4, offset=60)
        result = prediction_test(
            past, present, wide_control(), rng, prefixes=(24,), subsets=10
        )
        (row,) = result.rows()
        assert set(row) == {
            "prefix",
            "observed_intersection",
            "control_median",
            "control_q95",
            "exceedance",
            "better_predictor",
        }

    def test_empty_past_rejected(self, rng):
        with pytest.raises(ValueError):
            prediction_test(
                Report.from_addresses("e", []),
                persistent_networks("p", 2, 1),
                wide_control(),
                rng,
            )

    def test_small_control_rejected(self, rng):
        with pytest.raises(ValueError):
            prediction_test(
                persistent_networks("past", 20, 1),
                persistent_networks("present", 20, 100),
                Report.from_addresses("control", ["1.0.0.1"]),
                rng,
            )

    def test_equal_cardinality_subsets_used(self, rng):
        # Eq. 5 requires |R_normal-past| == |R_unclean-past|; control
        # intersections can therefore never exceed the past report size.
        past = persistent_networks("past", blocks=10, offset=1)
        present = persistent_networks("present", blocks=10, offset=100)
        result = prediction_test(
            past, present, wide_control(), rng, prefixes=(16,), subsets=30
        )
        assert result.control[16].maximum <= len(past)


class TestPredictionTestBlocks:
    CONTROL = {24: np.array([0, 1, 2, 3]), 16: np.array([0, 0, 1, 1])}

    def _run(self, predicted, present):
        return prediction_test_blocks(
            predicted, present, self.CONTROL, (24, 16), "past", "present"
        )

    def test_observed_counts_are_set_intersections(self):
        predicted = [
            np.array([10, 20, 30, 40], dtype=np.uint32),
            np.array([7], dtype=np.uint32),
        ]
        present = [
            np.array([5, 20, 40, 41], dtype=np.uint32),
            np.array([], dtype=np.uint32),
        ]
        result = self._run(predicted, present)
        assert result.observed == {24: 2, 16: 0}
        assert result.exceedance[24] == pytest.approx(0.5)
        for n, pred, pres in zip((24, 16), predicted, present):
            expected = len(set(pred.tolist()) & set(pres.tolist()))
            assert result.observed[n] == expected

    @pytest.mark.parametrize(
        "bad", [np.array([3, 1, 2]), np.array([1, 2, 2, 3])],
        ids=["unsorted", "duplicate"],
    )
    @pytest.mark.parametrize("side", ["predicted", "present"])
    def test_non_canonical_blocks_rejected(self, bad, side):
        good = np.array([1, 2, 3])
        predicted = [bad if side == "predicted" else good, good]
        present = [bad if side == "present" else good, good]
        with pytest.raises(ValueError, match=f"{side} blocks at /24"):
            self._run(predicted, present)
