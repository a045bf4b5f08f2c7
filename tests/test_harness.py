"""Tests for scenario specs, configuration, the episode harness, and the CLI."""
import json
import math
from dataclasses import fields, replace

import pytest

from driveplan.cli import main
from driveplan.config import Config, ConfigError, VARIANTS
from driveplan.harness import (
    BatchRow,
    batch_csv,
    compute_comfort,
    run_batch,
    run_episode,
    write_trace,
)
from driveplan.pomdp import DT
from driveplan.road import NoLaneWithinRadius, project
from driveplan.scenes import (
    ScenarioSpec,
    SpecValidationError,
    TEMPLATES,
    UnknownTemplate,
    generate_scene,
)

QUICK = Config(
    k_scenarios=4, n_is=4, max_expansions=2, n_particles=30, horizon_s=4.0
)


# ----------------------------------------------------------------------
# scenario specs and templates


class TestScenes:
    def test_templates_validate_over_many_seeds(self):
        for template in TEMPLATES:
            for seed in range(100):
                spec = generate_scene(template, seed=seed)
                network = spec.validate()
                # every agent's start pose must anchor onto the network
                project(network, (spec.ego_x, spec.ego_y))
                for e in spec.exos:
                    project(network, (e.x, e.y))

    def test_unknown_template(self):
        with pytest.raises(UnknownTemplate):
            generate_scene("roundabout")

    def test_generation_deterministic(self):
        a = generate_scene("merge", seed=3)
        b = generate_scene("merge", seed=3)
        assert a.to_dict() == b.to_dict()
        c = generate_scene("merge", seed=4)
        assert a.to_dict() != c.to_dict()

    def test_n_exo_override(self):
        spec = generate_scene("merge", seed=0, n_exo=2)
        assert len(spec.exos) == 2

    def test_round_trip_through_file(self, tmp_path):
        spec = generate_scene("junction", seed=5)
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = ScenarioSpec.load(path)
        assert loaded.to_dict() == spec.to_dict()
        loaded.validate()

    def test_validation_reports_all_problems(self):
        spec = generate_scene("merge", seed=0)
        spec.goal_lane = 99
        spec.exos[0].speed = -1.0
        spec.exos[0].intention = "LC_R"
        spec.exos[0].target_lane = None
        with pytest.raises(SpecValidationError) as err:
            spec.validate()
        msgs = err.value.problems
        assert any("goal_lane" in m for m in msgs)
        assert any("negative speed" in m for m in msgs)
        assert any("without target_lane" in m for m in msgs)

    def test_validation_rejects_bad_episode_length(self):
        spec = generate_scene("merge", seed=0)
        spec.episode_s = 0.3  # not a multiple of the 0.2 s tick
        with pytest.raises(SpecValidationError):
            spec.validate()

    @pytest.mark.parametrize(
        "part,name,value",
        [(None, "ego_x", math.nan), (None, "ego_speed", math.inf), ("exos", "x", math.nan),
         ("lanes", "width", math.nan), (None, "episode_s", math.nan), (None, "goal_lane", "3")],
    )
    def test_validation_rejects_bad_values(self, part, name, value):
        spec = generate_scene("merge", seed=0)
        setattr(getattr(spec, part)[0] if part else spec, name, value)
        with pytest.raises(SpecValidationError) as err:
            spec.validate()
        where = f"{part}[0].{name}" if part else name
        assert any(m.startswith(f"{where}: expected ") for m in err.value.problems)

    def test_validation_rejects_off_network_starts(self):
        spec = generate_scene("merge", seed=0)
        spec.exos[1].y = 500.0
        spec.ego_y = -500.0
        with pytest.raises(SpecValidationError) as err:
            spec.validate()
        msgs = err.value.problems
        assert any(m.startswith(f"exo {spec.exos[1].id}: start ") for m in msgs)
        assert any(m.startswith("ego: start ") for m in msgs)

    def test_every_scalar_field_changes_the_episode(self):
        # a spec field an episode ignores makes a silently wrong episode
        base = generate_scene("merge", seed=0, n_exo=2)
        base.episode_s = 2 * DT
        cfg = replace(QUICK, max_expansions=1)
        trace = run_episode(base, cfg)[1]
        header, ticks = trace[0], [r for r in trace if r["record"] == "tick"]
        scalars = [f.name for f in fields(ScenarioSpec)
                   if not isinstance(getattr(base, f.name), list)]
        assert len(scalars) == 8
        for name in scalars:
            value = getattr(base, name)
            if isinstance(value, str):  # the name labels the episode, in the header
                changed = replace(base, **{name: value + "x"})
                assert run_episode(changed, cfg)[1][0]["spec"] != header["spec"]
                continue
            changed = replace(base, **{name: value + (1 if isinstance(value, int) else 0.4)})
            try:
                changed.validate()
            except SpecValidationError:
                continue
            trace = run_episode(changed, cfg)[1]
            assert [r for r in trace if r["record"] == "tick"] != ticks, name

    def test_merge_has_ambiguous_cutter(self):
        spec = generate_scene("merge", seed=0)
        cutter = spec.exos[0]
        assert cutter.intention == "LC_R"
        assert cutter.target_lane == 0
        assert cutter.x > spec.ego_x  # ahead of the ego


# ----------------------------------------------------------------------
# configuration


class TestConfig:
    def test_round_trip(self):
        cfg = Config(k_scenarios=7, lambda_mix=0.25)
        assert Config.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"k_scenariso": 5})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            replace(Config(), variant="nope").resolved()

    def test_variant_overrides_are_contained(self):
        base = Config()
        for variant in VARIANTS:
            resolved, overrides = replace(base, variant=variant).resolved()
            # resolved differs from base exactly on the reported fields
            base_d, res_d = base.to_dict(), resolved.to_dict()
            diff = {
                k for k in base_d
                if k != "variant" and base_d[k] != res_d[k]
            }
            assert diff == set(overrides)

    def test_variant_semantics(self):
        assert replace(Config(), variant="wo_unc").resolved()[0].k_scenarios == 1
        assert replace(Config(), variant="wo_is").resolved()[0].lambda_mix == 0.0
        assert replace(Config(), variant="h4").resolved()[0].horizon_s == 4.0

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_scenarios": 3, "n_is": 5}))
        cfg = Config.from_file(path)
        assert cfg.k_scenarios == 3 and cfg.n_is == 5

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k_scenarios", 0),
            ("n_is", 0),
            ("n_particles", 0),
            ("lambda_mix", 1.5),
            ("k_scenarios", "5"),
            ("n_is", True),
            ("horizon_s", -1.0),
            ("gamma", 1.01),
            ("noise_pos", 0.0),
            ("max_ms", "fast"),
            ("variant", 3),
        ],
    )
    def test_bad_value_rejected_by_cli(self, tmp_path, capsys, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))
        rc = main(["run-once", "--template", "merge", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_field_rejected_by_cli(self, tmp_path, capsys):
        for field, value in (("lambda_reg", 0.0), ("max_ms", 50.0)):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({field: value}))
            rc = main(["run-once", "--template", "merge", "--config", str(path)])
            assert rc == 1
            assert f"error: {field}: unknown config field" in capsys.readouterr().err

    def test_defaults_and_variants_valid(self):
        for variant in VARIANTS:
            replace(Config(), variant=variant).resolved()
        assert Config(max_expansions=0, horizon_s=4).horizon_s == 4


# ----------------------------------------------------------------------
# comfort metric


class TestComfort:
    def test_all_smooth(self):
        assert compute_comfort([0.0] * 10) == 1.0

    def test_alternating_hard_braking_scores_zero(self):
        # every tick violates both the accel and the jerk limit
        accels = [3.0 if i % 2 == 0 else -3.0 for i in range(20)]
        assert compute_comfort(accels) == 0.0

    def test_jerk_only_violation(self):
        # |a| stays within 2.5 but one step jumps by 2.0 in one tick
        # (jerk 10 m/s^3); exactly that one transition is uncomfortable
        accels = [0.0, 0.0, 2.0, 2.0, 2.0]
        assert compute_comfort(accels) == pytest.approx(3 / 4)

    def test_boundary_is_comfortable(self):
        assert compute_comfort([0.0, 4.0 * DT]) == 1.0  # jerk exactly 4
        assert compute_comfort([2.5, 2.5]) == 1.0  # accel exactly at the limit


# ----------------------------------------------------------------------
# episode harness


class TestEpisode:
    def test_no_exo_episode_reaches_goal(self):
        spec = generate_scene("multilane", seed=1, n_exo=0)
        spec.episode_s = 20.0
        metrics, trace = run_episode(spec, QUICK, seed=0)
        assert not metrics.collided
        assert not metrics.missed_goal
        assert metrics.time_to_goal is not None
        assert metrics.comfort > 0.5
        ticks = [r for r in trace if r["record"] == "tick"]
        assert len(ticks) == spec.n_ticks()

    def test_trace_structure(self):
        spec = generate_scene("merge", seed=0, n_exo=2)
        spec.episode_s = 2.0
        metrics, trace = run_episode(spec, QUICK, seed=0)
        header, body, tail = trace[0], trace[1:-1], trace[-1]
        assert header["record"] == "header"
        assert header["variant"] == "full"
        assert header["variant_overrides"] == {}
        assert tail["record"] == "metrics"
        assert tail["collided"] == metrics.collided
        for rec in body:
            assert rec["record"] == "tick"
            assert set(rec["exos"]) == {"1", "2"}
            assert rec["planner"]["lower"] <= rec["planner"]["upper"] + 1e-9
            assert set(rec["belief"]) == {"1", "2"}

    def test_reward_matches_trace_sum(self):
        spec = generate_scene("merge", seed=2, n_exo=2)
        spec.episode_s = 4.0
        metrics, trace = run_episode(spec, QUICK, seed=1)
        ticks = [r for r in trace if r["record"] == "tick"]
        assert metrics.reward == pytest.approx(sum(r["reward"] for r in ticks))

    def test_determinism_byte_identical(self, tmp_path):
        spec = generate_scene("merge", seed=1, n_exo=3)
        spec.episode_s = 3.0
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(run_episode(spec, QUICK, seed=5)[1], p1)
        write_trace(run_episode(spec, QUICK, seed=5)[1], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_trace(self, tmp_path):
        spec = generate_scene("merge", seed=1, n_exo=3)
        spec.episode_s = 3.0
        t1 = run_episode(spec, QUICK, seed=0)[1]
        t2 = run_episode(spec, QUICK, seed=1)[1]
        assert t1 != t2

    def test_variant_recorded_in_header(self):
        spec = generate_scene("merge", seed=0, n_exo=1)
        spec.episode_s = 1.0
        _, trace = run_episode(spec, replace(QUICK, variant="wo_unc"), seed=0)
        header = trace[0]
        assert header["variant"] == "wo_unc"
        assert header["variant_overrides"] == {"k_scenarios": 1, "n_is": 1}
        assert header["config"]["k_scenarios"] == 1


# ----------------------------------------------------------------------
# batch runner


class TestBatch:
    def test_aggregation_identity(self):
        spec = generate_scene("multilane", seed=0, n_exo=0)
        spec.episode_s = 4.0
        singles = [run_episode(spec, QUICK, seed=s)[0] for s in (0, 1)]
        rows = run_batch([spec], ["full"], [0, 1], QUICK)
        assert len(rows) == 1
        row = rows[0]
        assert row.episodes == 2
        assert row.mean_reward == pytest.approx(
            (singles[0].reward + singles[1].reward) / 2
        )
        assert row.collision_rate == 100.0 * sum(m.collided for m in singles) / 2
        assert row.mean_comfort == pytest.approx(
            (singles[0].comfort + singles[1].comfort) / 2
        )

    def test_csv_shape(self):
        rows = [
            BatchRow("full", 4, 1.25, 0.0, 25.0, 10.5, 0.98),
            BatchRow("wo_unc", 4, -3.0, 50.0, 50.0, None, 0.90),
        ]
        text = batch_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("variant,episodes,")
        assert lines[1].startswith("full,4,1.2500,0.00,25.00,10.50,")
        assert lines[2] == "wo_unc,4,-3.0000,50.00,50.00,,0.9000"


# ----------------------------------------------------------------------
# command line


class TestCli:
    def _quick_cfg(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"k_scenarios": 4, "n_is": 4, "max_expansions": 2,
             "n_particles": 30, "horizon_s": 4.0}
        ))
        return str(path)

    def test_run_once_writes_outputs(self, tmp_path, capsys):
        spec = generate_scene("merge", seed=0, n_exo=1)
        spec.episode_s = 1.0
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        rc = main([
            "run-once", "--spec", str(spec_path), "--seed", "1",
            "--config", self._quick_cfg(tmp_path), "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        metrics = json.loads(out)
        assert set(metrics) >= {"reward", "collided", "missed_goal", "comfort"}
        trace_path = tmp_path / "out" / "merge-0-s1-full.trace.jsonl"
        assert trace_path.exists()
        assert json.loads(trace_path.read_text().splitlines()[0])["record"] == "header"
        assert (tmp_path / "out" / "merge-0-s1-full.metrics.json").exists()

    def test_validate_spec_ok_and_bad(self, tmp_path, capsys):
        spec = generate_scene("junction", seed=0)
        good = tmp_path / "good.json"
        spec.save(good)
        assert main(["validate-spec", "--spec", str(good)]) == 0
        spec.goal_lane = 99
        bad = tmp_path / "bad.json"
        spec.save(bad)
        assert main(["validate-spec", "--spec", str(bad)]) == 1
        assert "goal_lane" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,field",
        [
            pytest.param(lambda d: d.update(noise_pos=0.3), "noise_pos",
                         id="unknown-top-level-key"),
            pytest.param(lambda d: d["lanes"][5].update(is_connector=True),
                         "lanes[5].is_connector", id="unknown-lane-key"),
            pytest.param(lambda d: d["exos"][0].update(colour="red"), "exos[0].colour",
                         id="unknown-exo-key"),
            pytest.param(lambda d: d.pop("lanes"), "lanes", id="missing-key"),
            pytest.param(lambda d: d["lanes"][0].pop("centerline"), "lanes[0].centerline",
                         id="missing-lane-key"),
            pytest.param(lambda d: d["exos"][1].pop("x"), "exos[1].x", id="missing-exo-key"),
            pytest.param(lambda d: d.update(lanes={}), "lanes", id="lanes-not-a-list"),
            pytest.param(lambda d: d["lanes"].append(7), "lanes[6]", id="lane-not-an-object"),
            pytest.param(lambda d: d["lanes"][0].update(centerline=[1, 2]),
                         "lanes[0].centerline", id="bad-centerline"),
            pytest.param(lambda d: d["exos"][0].update(x=math.nan), "exos[0].x",
                         id="nan-position"),
            pytest.param(lambda d: d.update(ego_speed="fast"), "ego_speed", id="string-speed"),
            pytest.param(lambda d: d["exos"][0].update(y=500.0), "exo 1", id="off-network-exo"),
        ],
    )
    def test_bad_spec_file_rejected_by_cli(self, tmp_path, capsys, edit, field):
        data = json.loads(json.dumps(generate_scene("merge", seed=0).to_dict()))
        edit(data)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        assert main(["validate-spec", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field}:" in err, err

    @pytest.mark.parametrize(
        "text", ["{", "[1, 2]", "\"merge\"", "\xff\xfe"],
        ids=["truncated", "list", "string", "bytes"],
    )
    def test_malformed_spec_document_rejected_by_cli(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_bytes(text.encode("latin-1"))
        assert main(["validate-spec", "--spec", str(path)]) == 1
        assert "error: " in capsys.readouterr().err

    def test_old_spec_file_rejected_by_run_once(self, tmp_path, capsys):
        data = generate_scene("merge", seed=0).to_dict()
        data.update(noise_pos=0.3, noise_heading=0.05, noise_speed=0.3)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        rc = main(["run-once", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "noise_pos: unknown field" in err and "noise_speed: unknown field" in err
        assert not (tmp_path / "out").exists()

    def test_malformed_config_rejected_by_cli(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{'k_scenarios': 3}")
        rc = main(["run-once", "--template", "merge", "--config", str(path)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["validate-spec", "--spec", "/nonexistent.json"]) == 1

    def test_unknown_variant_exit_code(self, tmp_path, capsys):
        rc = main([
            "run-batch", "--template", "merge", "--count", "1",
            "--variants", "bogus", "--out", str(tmp_path),
        ])
        assert rc == 1

    def test_emit_plotdata(self, tmp_path, capsys):
        spec = generate_scene("multilane", seed=0, n_exo=0)
        spec.episode_s = 1.0
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        main([
            "run-once", "--spec", str(spec_path),
            "--config", self._quick_cfg(tmp_path), "--out", str(tmp_path / "out"),
        ])
        capsys.readouterr()
        trace = tmp_path / "out" / "multilane-0-s0-full.trace.jsonl"
        csv_out = tmp_path / "plot.csv"
        rc = main(["emit-plotdata", "--trace", str(trace), "--out", str(csv_out)])
        assert rc == 0
        lines = csv_out.read_text().strip().split("\n")
        assert lines[0] == "t,x,y,heading,speed,accel,lane,action,reward,collided"
        assert len(lines) == 1 + 5  # 1 s of 0.2 s ticks
