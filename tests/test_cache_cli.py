"""The ``repro cache`` / ``repro serve`` command surface.

Smoke + round-trip coverage: stats on dir and sqlite stores, push/pull
between them (and against a live ``repro serve`` on an ephemeral
port), gc with backdated artifacts, and the self-documenting --help
text of every new verb.
"""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.orchestration import (
    ArtifactStore,
    DirBackend,
    JobService,
    SqliteBackend,
)


@pytest.fixture
def dir_store(tmp_path):
    root = str(tmp_path / "cache")
    store = ArtifactStore(root)
    store.put("gp", "key-a", {"x": 1.5})
    store.put("lg", "key-b", {"positions": [1, 2, 3]})
    return root


def test_cache_stats_dir(dir_store, capsys):
    assert main(["cache", "stats", f"dir:{dir_store}"]) == 0
    out = capsys.readouterr().out
    assert "2 artifacts" in out
    assert "gp" in out and "lg" in out


def test_cache_push_then_stats_sqlite(dir_store, tmp_path, capsys):
    db_url = f"sqlite:{tmp_path / 'cache.db'}"
    assert main(["cache", "push", f"dir:{dir_store}", db_url]) == 0
    assert "copied 2 artifacts" in capsys.readouterr().out

    assert main(["cache", "stats", db_url]) == 0
    assert "2 artifacts" in capsys.readouterr().out

    # Idempotent: nothing left to copy.
    assert main(["cache", "push", f"dir:{dir_store}", db_url]) == 0
    out = capsys.readouterr().out
    assert "copied 0 artifacts" in out and "skipped 2" in out


def test_cache_pull_round_trip_preserves_bytes(dir_store, tmp_path, capsys):
    db_url = f"sqlite:{tmp_path / 'cache.db'}"
    assert main(["cache", "push", f"dir:{dir_store}", db_url]) == 0
    pulled = str(tmp_path / "pulled")
    assert main(["cache", "pull", f"dir:{pulled}", db_url]) == 0
    assert "copied 2 artifacts" in capsys.readouterr().out
    for kind, key in (("gp", "key-a"), ("lg", "key-b")):
        original = open(os.path.join(dir_store, kind, f"{key}.json")).read()
        roundtripped = open(os.path.join(pulled, kind, f"{key}.json")).read()
        assert roundtripped == original


def test_cache_push_to_live_http_server(dir_store, tmp_path, capsys):
    with JobService(SqliteBackend(str(tmp_path / "served.db")), workers=0) as server:
        assert main(["cache", "push", f"dir:{dir_store}", server.url]) == 0
        assert "copied 2 artifacts" in capsys.readouterr().out
        assert main(["cache", "stats", server.url]) == 0
        assert "2 artifacts" in capsys.readouterr().out
        # pull into a fresh dir from the server round-trips the bytes
        pulled = str(tmp_path / "from_http")
        assert main(["cache", "pull", f"dir:{pulled}", server.url]) == 0
        original = open(os.path.join(dir_store, "gp", "key-a.json")).read()
        assert open(os.path.join(pulled, "gp", "key-a.json")).read() == original


def test_cache_gc_expires_old_artifacts(dir_store, capsys):
    # Backdate one artifact by ten days; keep the other fresh.
    old_path = os.path.join(dir_store, "gp", "key-a.json")
    backdated = os.path.getmtime(old_path) - 10 * 86400
    os.utime(old_path, (backdated, backdated))

    assert main(["cache", "gc", f"dir:{dir_store}", "--keep-days", "7",
                 "--dry-run"]) == 0
    assert "would remove 1 artifacts" in capsys.readouterr().out
    assert os.path.exists(old_path)  # dry run deletes nothing

    assert main(["cache", "gc", f"dir:{dir_store}", "--keep-days", "7"]) == 0
    out = capsys.readouterr().out
    assert "removed 1 artifacts" in out and "kept 1" in out
    assert not os.path.exists(old_path)
    assert os.path.exists(os.path.join(dir_store, "lg", "key-b.json"))


def test_cache_gc_sqlite_uses_insert_timestamps(tmp_path, capsys):
    db_path = str(tmp_path / "cache.db")
    with SqliteBackend(db_path) as backend:
        backend.put_text("gp", "old", '{"x": 1}')
        backend._conn.execute(  # backdate the row's insert timestamp
            "UPDATE artifacts SET created_at = created_at - 864000"
        )
        backend._conn.commit()
        backend.put_text("gp", "fresh", '{"x": 2}')
    assert main(["cache", "gc", f"sqlite:{db_path}", "--keep-days", "7"]) == 0
    assert "removed 1 artifacts" in capsys.readouterr().out
    with SqliteBackend(db_path) as backend:
        assert not backend.has("gp", "old")
        assert backend.has("gp", "fresh")


def test_cache_rejects_unknown_scheme(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "stats", "s3://bucket"])
    assert excinfo.value.code == 2
    assert "unsupported store URL scheme" in capsys.readouterr().err


def test_cache_unreachable_server_fails_cleanly(tmp_path, capsys):
    server = JobService(DirBackend(str(tmp_path / "gone")), workers=0)
    url = server.url
    server.stop()
    assert main(["cache", "stats", url]) == 1
    assert "unreachable" in capsys.readouterr().err


def test_sweep_unreachable_cache_url_fails_before_computing(tmp_path, capsys):
    # A mistyped cache host must produce a clean error *before* any job
    # runs — never a traceback after an expensive gp job.
    server = JobService(DirBackend(str(tmp_path / "gone")), workers=0)
    url = server.url
    server.stop()
    code = main(
        [
            "sweep",
            "--topologies", "grid",
            "--benchmarks", "bv-4",
            "--engines", "qgdp",
            "--seeds", "1",
            "--cache-url", url,
            "--cache-dir", str(tmp_path / "local"),
            "--quiet",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "unreachable" in captured.err
    assert "jobs computed" not in captured.out  # nothing ran


def test_tables_unreachable_cache_url_fails_cleanly(tmp_path, capsys):
    server = JobService(DirBackend(str(tmp_path / "gone")), workers=0)
    url = server.url
    server.stop()
    code = main(
        [
            "tables", "--which", "table3", "--topologies", "grid",
            "--cache-url", url, "--cache-dir", str(tmp_path / "local"),
        ]
    )
    assert code == 1
    assert "unreachable" in capsys.readouterr().err


def test_sweep_cache_url_sqlite_end_to_end(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    db_url = f"sqlite:{tmp_path / 'cache.db'}"
    args = [
        "sweep",
        "--topologies", "grid",
        "--benchmarks", "bv-4",
        "--engines", "qgdp",
        "--seeds", "1",
        "--workers", "1",
        "--cache-url", db_url,
        "--cache-dir", str(tmp_path / "runs_host"),
        "--quiet",
    ]
    assert main(args) == 0
    assert "jobs computed" in capsys.readouterr().out
    assert main(args + ["--resume"]) == 0
    assert "0 jobs computed" in capsys.readouterr().out
    # Artifacts live in the database, not in a directory sprawl.
    with SqliteBackend(str(tmp_path / "cache.db")) as backend:
        kinds = {entry.kind for entry in backend.entries()}
    assert {"gp", "lg", "transpile", "analyze", "fidelity"} <= kinds


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.store == "dir:.repro_cache"
    assert args.host == "127.0.0.1"
    assert args.port == 8766
    assert args.workers == 2
    assert args.token is None
    assert args.max_body_mb == 64
    assert args.socket_timeout_s == 60.0
    args = build_parser().parse_args(
        ["serve", "--store", "sqlite:x.db", "--port", "0", "--quiet",
         "--workers", "0", "--max-body-mb", "1", "--socket-timeout-s", "5"]
    )
    assert args.port == 0 and args.quiet and args.workers == 0
    assert args.max_body_mb == 1 and args.socket_timeout_s == 5.0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["cache", "--help"], ["stats", "gc", "push", "pull"]),
        (["cache", "stats", "--help"], ["dir:PATH", "sqlite:PATH"]),
        (["cache", "gc", "--help"], ["--keep-days", "--dry-run"]),
        (["cache", "push", "--help"], ["LOCAL", "REMOTE", "Idempotent"]),
        (["cache", "pull", "--help"], ["LOCAL", "REMOTE"]),
        (["serve", "--help"], ["--store", "--port", "docs/storage.md"]),
    ],
)
def test_new_verbs_are_self_documenting(argv, expected, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 0
    help_text = capsys.readouterr().out
    for needle in expected:
        assert needle in help_text, (argv, needle)


def test_sweep_help_documents_cache_url(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--help"])
    help_text = capsys.readouterr().out
    assert "--cache-url" in help_text and "sqlite:PATH" in help_text
