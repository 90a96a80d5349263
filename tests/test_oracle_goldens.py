"""oracle_sql() builds every golden its oracles read, up front.

The jenks, semdedup and absorbing-Markov oracles read goldens that live in
their own cache dirs; pointing those dirs at an empty tmp_path stands in for
a fresh /tmp, where an oracle reading a never-built golden would fail.
"""

import os

import __ray_entry__
from core_ray.queries import emb, events_stats, geo_stats


def test_oracle_sql_builds_every_golden(tmp_path, monkeypatch):
    dirs = {
        (geo_stats, "_jenks_dir"): tmp_path / "jenks",
        (emb, "_semdedup_dir"): tmp_path / "semdedup",
        (events_stats, "_absorbing_dir"): tmp_path / "absorbing",
    }
    for (module, name), d in dirs.items():
        monkeypatch.setattr(module, name, lambda d=d: str(d))

    sql = __ray_entry__.oracle_sql()

    assert {"geo_jenks_breaks", "emb_semdedup", "events_absorbing_markov"} <= set(sql)
    for d in dirs.values():
        assert os.path.exists(os.path.join(d, ".complete")), d
