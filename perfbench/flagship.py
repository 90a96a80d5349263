"""The flagship workloads: ``flagship_cold`` and ``flagship_delta``.

Both run ``core_ray.pipelines.flagship.run_flagship`` over one seeded pages
corpus and check every rep's outputs against the pure-Python oracle
``core_ray.fixtures.oracle.compute_golden``.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc

from perfbench.harness import Outcome, ProcMeter, call_with_timeout, log

N_PAGES = 2_500
N_PAGE_FILES = 8
HTML_NOISE_WORDS = 1_200  # ~10 KB of html per page
REP_TIMEOUT_S = 30.0
MIN_REPS = 5  # every run's medians are over at least this many reps

_JOINED = [("url", pa.string()), ("mention_idx", pa.int64()),
           ("derivation_source", pa.string()), ("lat", pa.float64()),
           ("lon", pa.float64()), ("hex_cell", pa.uint64()),
           ("s2_cell", pa.uint64()), ("admin_id", pa.string()),
           ("admin_level", pa.int64())]
_KNN = [("url", pa.string()), ("mention_idx", pa.int64()), ("rank", pa.int64()),
        ("neighbor_url", pa.string()), ("neighbor_mention_idx", pa.int64()),
        ("dist", pa.float64())]
_TILES = [("tile_z", pa.int64()), ("tile_x", pa.int64()), ("tile_y", pa.int64()),
          ("page_count", pa.int64()), ("mention_count", pa.int64())]
_ERRORS = [("url", pa.string()), ("phase", pa.string()), ("reason", pa.string())]
_TEXT = [("url", pa.string()), ("sha256", pa.string())]
_STATS = ("rows_geocoded", "rows_no_signal", "pages_deduped", "derivation_source_hist")


def _digest(table: pa.Table, cols, n_keys: int) -> str:
    """Order-insensitive digest: canonical types, sorted by the key columns,
    distances rounded to 10 decimals (the oracle uses math.hypot)."""
    t = pa.table({name: table[name].cast(typ) for name, typ in cols})
    if "dist" in t.column_names:
        t = t.set_column(t.column_names.index("dist"), "dist", pc.round(t["dist"], 10))
    t = t.sort_by([(name, "ascending") for name, _ in cols[:n_keys]])
    h = hashlib.sha256()
    for col in t.columns:
        h.update(repr(col.to_pylist()).encode())
    return h.hexdigest()


def _rows(rows: list[dict], cols) -> pa.Table:
    return pa.table({name: pa.array([r[name] for r in rows], typ) for name, typ in cols})


class Corpus:
    """The seeded corpus on disk plus the oracle's digests of its outputs."""

    def __init__(self, work: str, seed: int):
        from core_ray.fixtures.oracle import compute_golden
        from core_ray.fixtures.pages import write_corpus

        self.dir = os.path.join(work, "corpus")
        shutil.rmtree(self.dir, ignore_errors=True)
        c = write_corpus(self.dir, N_PAGES, seed=seed, n_page_files=N_PAGE_FILES,
                         html_noise_words=HTML_NOISE_WORDS)
        self.files = sorted(glob.glob(os.path.join(self.dir, "pages", "*.parquet")))
        self.admin, self.geoip = c.admin_polygons, c.geoip_ranges
        self.n_pages = c.pages.num_rows
        g = compute_golden(c.pages, c.admin_polygons, c.geoip_ranges)
        joined_urls = {r["url"] for r in g.joined}
        self.expected = {
            "joined": _digest(_rows(g.joined, _JOINED), _JOINED, 2),
            "knn": _digest(_rows(g.knn, _KNN), _KNN, 3),
            "tiles": _digest(pa.table({
                "tile_z": [k[0] for k in g.tiles], "tile_x": [k[1] for k in g.tiles],
                "tile_y": [k[2] for k in g.tiles],
                "page_count": [v[0] for v in g.tiles.values()],
                "mention_count": [v[1] for v in g.tiles.values()],
            }), _TILES, 3),
            "errors": _digest(_rows(g.errors, _ERRORS), _ERRORS, 2),
            "text": _digest(pa.table({
                "url": sorted(joined_urls),
                "sha256": [g.text_hashes[u] for u in sorted(joined_urls)],
            }), _TEXT, 1),
            "stats": {k: g.stats[k] for k in _STATS},
        }

    def warm_page_cache(self) -> None:
        for f in self.files:
            with open(f, "rb") as fh:
                while fh.read(1 << 20):
                    pass

    def run(self, ckpt_dir: str, files: list[str] | None = None):
        from core_ray.config import PipelineConfig
        from core_ray.pipelines.flagship import run_flagship

        return run_flagship(files or self.files, self.admin, self.geoip,
                            PipelineConfig(), checkpoint_dir=ckpt_dir)

    def mismatches(self, res) -> list[str]:
        """Names of the outputs of ``res`` that differ from the oracle."""
        from core_ray.collect import collect_table

        joined = collect_table(res.joined.select_columns(
            [name for name, _ in _JOINED] + ["text"]))
        first = pc.equal(joined["mention_idx"], 0)
        pages = joined.filter(first)
        got = {
            "joined": _digest(joined, _JOINED, 2),
            "knn": _digest(collect_table(res.knn), _KNN, 3),
            "tiles": _digest(collect_table(res.tiles), _TILES, 3),
            "errors": _digest(collect_table(res.errors), _ERRORS, 2),
            "text": _digest(pa.table({
                "url": pages["url"],
                "sha256": [hashlib.sha256(t.encode()).hexdigest()
                           for t in pages["text"].to_pylist()],
            }), _TEXT, 1),
            "stats": {k: res.stats.get(k) for k in _STATS},
        }
        return [k for k in got if got[k] != self.expected[k]]


class Rep:
    """One timed pipeline run: outcome, CPU and peak memory."""

    def __init__(self, outcome: Outcome, meter: ProcMeter, wrong: list[str]):
        self.outcome = outcome
        self.wall_s = outcome.seconds
        self.cpu_s = meter.cpu_s
        self.peak_rss_mb = meter.peak_bytes / 2**20
        self.wrong = wrong

    @property
    def ok(self) -> bool:
        return self.outcome.ok and not self.wrong


def timed_rep(corpus: Corpus, ckpt_dir: str) -> Rep:
    with ProcMeter() as meter:
        out = call_with_timeout(lambda: corpus.run(ckpt_dir), REP_TIMEOUT_S)
    wrong = []
    if out.ok:
        check = call_with_timeout(lambda: corpus.mismatches(out.value), REP_TIMEOUT_S)
        wrong = check.value if check.ok else [f"check: {check.error or 'timeout'}"]
        out.value = None  # release the rep's blocks from the object store
    log(f"flagship rep: {out.seconds:.3f} s")
    if not out.ok or wrong:
        log(f"flagship rep failed: {out.error or ''}{' timeout' if out.timed_out else ''} "
            f"wrong={wrong}")
    return Rep(out, meter, wrong)


def bump_mtime(path: str, step: int) -> None:
    """Give ``path`` a new mtime: the input fingerprint changes, bytes do not."""
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + (step + 1) * 1_000_000_000))


def prepare(kind: str, work: str, seed: int):
    """Set-up shared by both workloads (timed by the caller as ``setup_s``):
    corpus + oracle digests, page-cache warm-up, and an untimed warm-up rep.
    flagship_cold warms up on one page file into a scratch checkpoint dir;
    flagship_delta's warm-up is the full cold build its reps resume from."""
    corpus = Corpus(work, seed)
    corpus.warm_page_cache()
    ckpt = os.path.join(work, "ckpt-warm")
    shutil.rmtree(ckpt, ignore_errors=True)
    files = corpus.files if kind == "flagship_delta" else corpus.files[:1]
    warm = call_with_timeout(lambda: corpus.run(ckpt, files), REP_TIMEOUT_S * 2)
    if not warm.ok:
        raise RuntimeError(f"warm-up rep failed: {warm.error or 'timeout'}")
    return corpus, ckpt


def measure(kind: str, corpus: Corpus, warm_ckpt: str, work: str, seconds: float,
            deadline: float, min_reps: int) -> list[Rep]:
    """Timed reps until ``seconds`` have passed and ``min_reps`` are done
    (no new rep after ``deadline``; at least one). A cold rep gets a fresh
    checkpoint dir; a delta rep bumps one page file's mtime (round-robin)
    and resumes from the warm-up build."""
    reps: list[Rep] = []
    t0 = time.monotonic()
    while not reps or ((len(reps) < min_reps or time.monotonic() - t0 < seconds)
                       and time.monotonic() < deadline):
        i = len(reps)
        if kind == "flagship_cold":
            ckpt = os.path.join(work, f"ckpt-{i}")
            shutil.rmtree(ckpt, ignore_errors=True)
        else:
            ckpt = warm_ckpt
            bump_mtime(corpus.files[i % len(corpus.files)], i)
        rep = timed_rep(corpus, ckpt)
        reps.append(rep)
        if kind == "flagship_cold":
            shutil.rmtree(ckpt, ignore_errors=True)
        if rep.outcome.timed_out:
            break  # the session is wedged; the caller tears it down
    return reps
