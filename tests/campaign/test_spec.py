"""Campaign spec validation, expansion, digests, and loading."""

from __future__ import annotations

import json
import math

import pytest

from repro.campaign import (
    BUILTIN_CAMPAIGNS,
    CampaignSpec,
    load_spec,
    resolve_spec,
    spec_from_document,
)
from repro.campaign.spec import config_digest
from repro.errors import ConfigError


def _grid(**overrides) -> CampaignSpec:
    base = dict(
        name="t",
        target="_echo",
        mode="grid",
        axes={"a": [1, 2], "b": [10, 20, 30]},
        seed=5,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestExpansion:
    def test_grid_is_row_major_cartesian_product(self):
        cells = _grid().expand()
        assert len(cells) == 6
        assert [c.params["a"] for c in cells] == [1, 1, 1, 2, 2, 2]
        assert [c.params["b"] for c in cells] == [10, 20, 30] * 2
        assert cells[0].label == "a=1,b=10"
        assert [c.index for c in cells] == list(range(6))

    def test_zip_advances_axes_in_lockstep(self):
        spec = _grid(mode="zip", axes={"a": [1, 2], "b": [10, 20]})
        cells = spec.expand()
        assert [(c.params["a"], c.params["b"]) for c in cells] == [
            (1, 10),
            (2, 20),
        ]

    def test_zip_rejects_unequal_lengths(self):
        with pytest.raises(ConfigError, match="equal lengths"):
            _grid(mode="zip")

    def test_list_mode_takes_explicit_cells(self):
        spec = CampaignSpec(
            name="t",
            target="_echo",
            mode="list",
            cells=({"a": 1}, {"a": 2, "b": 3}),
        )
        cells = spec.expand()
        assert len(cells) == 2
        assert cells[1].params["b"] == 3

    def test_fixed_parameters_reach_every_cell(self):
        spec = _grid(fixed={"vector": 64})
        assert all(c.params["vector"] == 64 for c in spec.expand())

    def test_duplicate_cells_rejected(self):
        spec = CampaignSpec(
            name="t",
            target="_echo",
            mode="list",
            cells=({"a": 1}, {"a": 1}),
        )
        with pytest.raises(ConfigError, match="identical parameters"):
            spec.expand()


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode must be one of"):
            _grid(mode="sweep")

    def test_empty_axis(self):
        with pytest.raises(ConfigError, match="non-empty list"):
            _grid(axes={"a": []})

    def test_non_scalar_axis_value(self):
        with pytest.raises(ConfigError, match="scalar"):
            _grid(axes={"a": [[1, 2]]})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["axis", "fixed", "cell"])
    def test_non_finite_value_rejected(self, where, value):
        """Digests are canonical JSON, which has no NaN or infinity."""
        with pytest.raises(ConfigError, match="must be finite"):
            if where == "axis":
                _grid(axes={"a": [1.0, value]})
            elif where == "fixed":
                _grid(fixed={"f": value})
            else:
                CampaignSpec(
                    name="t", target="_echo", mode="list",
                    cells=({"a": value},),
                )

    @pytest.mark.parametrize(
        "name,text",
        [
            ("nan.json", '{"target": "_echo", "axes": {"a": [1, NaN]}}'),
            ("inf.toml", 'target = "_echo"\n[fixed]\nf = inf\n'),
        ],
    )
    def test_non_finite_value_in_spec_file_rejected(self, tmp_path, name, text):
        if name.endswith(".toml"):
            pytest.importorskip("tomllib")  # 3.11+
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError, match="must be finite"):
            load_spec(path)

    def test_duplicate_axis_values(self):
        with pytest.raises(ConfigError, match="duplicate values"):
            _grid(axes={"a": [1, 1]})

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="non-negative"):
            _grid(seed=-1)

    def test_grid_mode_rejects_explicit_cells(self):
        with pytest.raises(ConfigError, match="mode"):
            _grid(cells=({"a": 1},))


class TestDigestsAndSeeds:
    def test_digests_are_stable_and_axis_order_independent(self):
        first = _grid().expand()
        reordered = CampaignSpec(
            name="t",
            target="_echo",
            mode="grid",
            # Same axes, same declaration order; values reordered within
            # an axis produce the same digest *set* in a different order.
            axes={"a": [2, 1], "b": [30, 20, 10]},
            seed=5,
        ).expand()
        assert {c.digest for c in first} == {c.digest for c in reordered}
        assert [c.digest for c in first] != [c.digest for c in reordered]

    def test_digest_changes_with_params_target_and_base_seed(self):
        base = _grid().expand()[0]
        assert _grid(seed=6).expand()[0].digest != base.digest
        assert _grid(target="_flaky").expand()[0].digest != base.digest
        assert (
            _grid(axes={"a": [3, 2], "b": [10, 20, 30]})
            .expand()[0]
            .digest
            != base.digest
        )

    def test_derived_seeds_are_deterministic_and_distinct(self):
        cells = _grid().expand()
        again = _grid().expand()
        assert [c.params["seed"] for c in cells] == [
            c.params["seed"] for c in again
        ]
        assert len({c.params["seed"] for c in cells}) == len(cells)

    def test_explicit_seed_axis_is_used_verbatim(self):
        spec = _grid(axes={"seed": [111, 222]})
        assert [c.params["seed"] for c in spec.expand()] == [111, 222]
        # Explicitly-seeded cells ignore the base seed, so their digests
        # (= cache keys) survive a base-seed change.
        other = _grid(axes={"seed": [111, 222]}, seed=99)
        assert [c.digest for c in spec.expand()] == [
            c.digest for c in other.expand()
        ]

    def test_spec_digest_covers_the_whole_document(self):
        assert _grid().digest() == _grid().digest()
        assert _grid().digest() != _grid(seed=6).digest()
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )


class TestOverridesAndLoading:
    def test_restrict_axes(self):
        spec = _grid().restrict_axes({"b": [10]})
        assert len(spec.expand()) == 2

    def test_restrict_unknown_axis(self):
        with pytest.raises(ConfigError, match="no axis"):
            _grid().restrict_axes({"c": [1]})

    def test_restrict_rejected_outside_grid_mode(self):
        spec = _grid(mode="zip", axes={"a": [1], "b": [2]})
        with pytest.raises(ConfigError, match="grid"):
            spec.restrict_axes({"a": [1]})

    def test_unknown_document_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            spec_from_document({"target": "_echo", "axis": {}})

    def test_json_spec_roundtrip(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(_grid().to_document()))
        loaded = load_spec(path)
        assert loaded == _grid()

    def test_toml_spec_loads(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # noqa: F841 - 3.11+
        path = tmp_path / "mini.toml"
        path.write_text(
            'name = "t"\ntarget = "_echo"\nmode = "grid"\nseed = 5\n'
            "[axes]\na = [1, 2]\nb = [10, 20, 30]\n"
        )
        assert load_spec(path) == _grid()

    def test_unknown_spec_name_lists_builtins(self):
        with pytest.raises(ConfigError, match="design-space"):
            resolve_spec("nope")

    def test_builtins_validate_and_expand(self):
        expected = {
            "design-space": 8,
            "coflow-mix": 8,
            "fabric-sweep": 6,
            "stateful-sweep": 8,
        }
        assert set(expected) == set(BUILTIN_CAMPAIGNS)
        for name in BUILTIN_CAMPAIGNS:
            cells = resolve_spec(name).expand()
            assert len(cells) == expected[name]
            assert len({c.digest for c in cells}) == len(cells)
