"""The ``python -m repro.sweep`` control plane, driven in-process."""

import json

import pytest

from repro.sweep import JobSpool, Scenario, SweepCache, stable_hash
from repro.sweep.cli import build_parser, build_spec, main

BASE_ARGS = [
    "--services", "mongodb",
    "--apps", "kmeans",
    "--loads", "0.5,0.8",
    "--seeds", "4",
    "--horizon", "60",
]


def _submit(spool, cache, *extra):
    return main(
        ["submit", "--spool", str(spool), "--cache", str(cache), *BASE_ARGS, *extra]
    )


class TestSubmit:
    def test_spools_grid(self, tmp_path, capsys):
        assert _submit(tmp_path / "spool", tmp_path / "cache") == 0
        out = capsys.readouterr().out
        assert "spooled 2 scenarios" in out
        spool = JobSpool(tmp_path / "spool")
        assert len(spool.job_ids()) == 2
        scenarios = [spool.load_scenario(job_id) for job_id in spool.job_ids()]
        assert {scenario.load_fraction for scenario in scenarios} == {0.5, 0.8}
        assert all(scenario.horizon == 60.0 for scenario in scenarios)

    def test_resubmit_is_idempotent(self, tmp_path):
        _submit(tmp_path / "spool", tmp_path / "cache")
        _submit(tmp_path / "spool", tmp_path / "cache")
        assert len(JobSpool(tmp_path / "spool").job_ids()) == 2

    def test_multi_app_mix_syntax(self, tmp_path):
        main(
            [
                "submit", "--spool", str(tmp_path / "spool"),
                "--services", "nginx",
                "--apps", "kmeans+canneal", "--apps", "snp",
                "--seeds", "1",
            ]
        )
        spool = JobSpool(tmp_path / "spool")
        mixes = {
            JobSpool(tmp_path / "spool").load_scenario(job_id).apps
            for job_id in spool.job_ids()
        }
        assert mixes == {("kmeans", "canneal"), ("snp",)}

    def test_wait_serves_from_cache_after_worker_drain(self, tmp_path, capsys):
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        _submit(spool, cache)
        main(["worker", "--spool", str(spool), "--cache", str(cache),
              "--exit-when-idle"])
        capsys.readouterr()
        assert _submit(spool, cache, "--wait", "--timeout", "60") == 0
        assert "2 from cache" in capsys.readouterr().out


class TestWorkerAndStatus:
    def test_worker_drains_and_status_reports(self, tmp_path, capsys):
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        _submit(spool, cache)
        assert main(
            ["worker", "--spool", str(spool), "--cache", str(cache),
             "--exit-when-idle", "--worker-id", "cli-test"]
        ) == 0
        assert "executed 2 jobs" in capsys.readouterr().out
        assert main(["status", "--spool", str(spool), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status == {
            "total": 2, "done": 2, "running": 0, "expired": 0, "pending": 0,
            "failed": 0,
        }
        assert SweepCache(cache).entry_count() == 2

    def test_worker_exits_immediately_on_empty_spool(self, tmp_path, capsys):
        assert main(
            ["worker", "--spool", str(tmp_path / "spool"), "--cache",
             str(tmp_path / "cache"), "--exit-when-idle"]
        ) == 0
        assert "executed 0 jobs" in capsys.readouterr().out


class TestCacheCommands:
    def test_stats_empty(self, tmp_path, capsys):
        assert main(
            ["cache", "stats", "--cache", str(tmp_path / "cache"), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0 and stats["total_bytes"] == 0

    def test_stats_after_population(self, tmp_path, capsys):
        cache = SweepCache(tmp_path / "cache")
        scenario = Scenario(service="mongodb", apps=("kmeans",))
        key = cache.key(scenario)
        cache.put(key, "payload")
        assert cache.get(key) == "payload"
        cache.flush_stats()  # counters batch in memory until flushed
        main(["cache", "stats", "--cache", str(tmp_path / "cache"), "--json"])
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["hit_rate"] == 1.0

    def test_prune_requires_a_bound(self, tmp_path):
        assert main(["cache", "prune", "--cache", str(tmp_path / "cache")]) == 2

    def test_prune_max_bytes(self, tmp_path, capsys):
        cache = SweepCache(tmp_path / "cache")
        for seed in range(3):
            scenario = Scenario(service="mongodb", apps=("kmeans",), seed=seed)
            cache.put(cache.key(scenario), "x" * 1000)
        main(["cache", "prune", "--cache", str(tmp_path / "cache"),
              "--max-bytes", "1100", "--json"])
        pruned = json.loads(capsys.readouterr().out)
        assert pruned["removed"] == 2
        assert pruned["remaining"] == 1
        assert SweepCache(tmp_path / "cache").entry_count() == 1


class TestParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_submit_requires_apps(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["submit", "--spool", str(tmp_path / "spool")])


#: Grid flags with two values on every axis and the three scalar knobs
#: set off their defaults.
GOLDEN_ARGS = [
    "submit", "--spool", "unused",
    "--services", "nginx,memcached",
    "--apps", "kmeans", "--apps", "canneal+snp",
    "--policies", "pliant,precise",
    "--loads", "0.6,0.9",
    "--intervals", "0.5,2.0",
    "--seeds", "3,7",
    "--horizon", "150", "--monitor-epoch", "0.2", "--slack-threshold", "0.15",
]

#: Content hashes of the scenarios GOLDEN_ARGS expands to, in expansion
#: order (service, apps, policy, load_fraction, decision_interval, seed;
#: first slowest).  Spool job ids and result-cache keys derive from these
#: payloads, so the same flags must keep expanding to the same scenarios.
GOLDEN_KEYS = [
    "89b172230dd9bb162946770c5e1513b1",
    "91f187b99d8b86796c8fa19f5e777c87",
    "905888163c177c954ed69460d4571256",
    "ffd900fe9aad5cbe35653352119c8960",
    "a37b20921d01b119ac04755cb206de2d",
    "f3f1fef280cdb397cb343a6ded69f3a7",
    "fea3c0a82f957de67159eb10c027d895",
    "bbecfd89775f681c7244abe6deaeed51",
    "667d8b14d7fb336f43fb230667b11837",
    "afb5166252d2dc89dafdf6cbf993460f",
    "18a6b69cb342db52992fb86b6f658ece",
    "f85d6386f30c9cf1b6b147fb292e4164",
    "785b0f1f29b8c47d07a15104ac2f01c7",
    "c08b53c6d8836ee7981b131366b992ab",
    "62c452ad553dfcbbed428784b49ea774",
    "7b7d4a4235cb6b6b86b7fca9c6d9e370",
    "420e10c6fb4436f217e2e27866a7a085",
    "bba059c7ef517fac6be9e0a3816a0f42",
    "11e97716070b3f50813024514c356a3d",
    "3d77ef966de93ee25f7d407885694724",
    "15f4c9c25d575731cc59ccf4b36abd80",
    "4bcfdd897354bfe89fea0c1dbae892d3",
    "ba38c5b44bde5a5e299e6dfc26f1a716",
    "b394fa02718072a26bcfe1d3bc71607b",
    "f8b57465db60bb6fe6c4ca26780f75ca",
    "f39d07ecc0f8601b418e883f7c2ae015",
    "add4c950e0a06253e4633a277ba6b95d",
    "91541d14c3ea64b83a2103671bc67674",
    "81fe70bf5af8c5f37a214df7ea3c6764",
    "089bdb1887154f9bc125025e71435756",
    "091fd59fdd6c08cb3e5bab7445ed4038",
    "2356c82494080d72c863d5817d90dc8a",
    "ef604af8779e3ff1cf0246a27d808bdd",
    "7bc3aa1737a7c8400858746dea49f395",
    "902fefad6fece074030832bba7f3d3b9",
    "6e53d027d61580ec0fa696eb494cd5e8",
    "f602f40f59e0edb0924958729c8478ce",
    "161952e175336959c203866dec95d74c",
    "f56da19ff7d749d3f71d22be86b17e1a",
    "b84d6ef092aaa13eae638bf2f43ed1f5",
    "51e9e3348af30c57a8cb941494e39003",
    "1f26900e0596c45bb398c22f6cac1fa2",
    "b47ff23a2758ce6d955ee910359a0ad7",
    "eca06acdb4045bb91a7b42723e0500bc",
    "14a6f105979749e5e78c076a1aedd2ea",
    "9a318afff1fc6c459a7992b9509388c6",
    "a3a9f5339d5a2c061b3f8dec00d6129c",
    "dc85aa3a1aa8f865196db57283392cf1",
    "fd1d65e610c57c3012e3e2ced7d403a9",
    "ec393fe3cd05572bdfa62e7603f5b724",
    "b3fd9533958f4eb70af2fe3a865dca96",
    "3a0d4675b26384beb564323ebf8d6ef8",
    "061887351f22676077095c6db1c242b7",
    "1274a5ee0cd781ffb9c97714d19c5aad",
    "77fe4c19627710918735d25f70b58409",
    "ced147602d679b6a69983ee25e40f09b",
    "ec3d4f2ced6ca6c9fb70774c15e1473b",
    "f8ee7e7fc1df80c24e11084fd1bbed20",
    "c12a6a3ef33c29beafa2ad2ff55eccaf",
    "fbbd793af3ea8c3b6b01c55e6b23522f",
    "03bc69b58a0530fa85314da7d66eba1d",
    "a14895bee601b5dcbbd138afea6e8e44",
    "675fb527acc24877c81703e7483b5c90",
    "4ce2eb3a0999263589c7f82e3726ad87",
]


class TestGridFlagExpansion:
    def test_cache_keys_pinned(self):
        spec = build_spec(build_parser().parse_args(GOLDEN_ARGS))
        keys = [stable_hash(s.key_payload()) for s in spec.scenarios()]
        assert keys == GOLDEN_KEYS

    def test_axis_order(self):
        spec = build_spec(build_parser().parse_args(GOLDEN_ARGS))
        assert spec.axis_names == (
            "service", "apps", "policy", "load_fraction",
            "decision_interval", "seed",
        )
