"""Seeded benchmark inputs, their reference output, and the output check.

Each workload's input is a directory of parquet files in the PAGES schema,
built only from ``--seed`` with the package's public generators
(``synth.render_doc``/``make_pages`` and the ``ops`` format builders).
The program under test sees nothing but these files.

Inputs are cached under ``perfbench/.work/cache`` keyed by workload, seed
and a hash of the package source plus this file, together with the
per-url digests of the single-process reference ``pipeline.extract_table``
over the same rows. Generation and the reference run therefore happen
once per input, never inside a timed region.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

# Input sizes. One timed job over an input takes about 1.5-2 s on a
# 4-CPU Xeon VM, so a 30 s run holds 15-20 jobs and reports their median.
CRAWL_DOCS = 3_600           # + ~3% recrawled duplicates
CRAWL_FILES = 4
RECRAWL_URLS = 1_400         # x ~4 captures each
RECRAWL_FILES = 4
OFFICE_FILES = 24
OFFICE_ROWS_PER_FILE = 40    # + ~3% cross-file duplicates
WARM_ROWS = 256              # slice for the untimed warm job of a setup

EPOCH_US = 1_704_067_200_000_000
HOUR_US = 3_600_000_000

# synth.render_doc picks the family from doc_id % 100
_GOOD_SLOTS = [m for m in range(100) if not 85 <= m < 95]
_BAD_SLOTS = list(range(85, 95))
_HTML_SLOTS = list(range(0, 65))      # receipt + article
_PDFISH_SLOTS = list(range(95, 100))


@dataclass
class Input:
    """A generated input, a small slice of it and its reference output."""

    workload: str
    seed: int
    src: str                   # directory of input parquet files
    warm: str                  # directory holding the first WARM_ROWS rows
    ref: dict[str, str]        # url -> digest of the reference output row
    stats: dict                # rows, bytes, kind mix, dup rate, ...

    @property
    def rows(self) -> int:
        return self.stats["rows"]

    @property
    def expected_rows(self) -> int:
        return len(self.ref)


def _page_rows_table(rows: list[tuple]) -> pa.Table:
    from webxtract import schema as S

    cols = list(zip(*rows))
    return pa.Table.from_arrays([
        pa.array(cols[0], pa.string()),
        pa.array(cols[1], pa.timestamp("us")),
        pa.array(cols[2], pa.binary()),
        pa.array(cols[3], pa.string()),
        pa.array(cols[4], pa.string()),
    ], schema=S.PAGES)


def gen_crawl_mix(seed: int) -> tuple[pa.Table, list[str]]:
    """The synth family mix (receipt, article, linkfarm, noisy, bad,
    pdfish) with ~3% recrawled duplicates, as the flagship sees it."""
    from webxtract import synth

    t = synth.make_pages(CRAWL_DOCS, seed=seed)
    kinds = [u.split("/")[3] for u in t.column("url").to_pylist()]
    return t, kinds


def gen_recrawl_reject(seed: int) -> tuple[pa.Table, list[str]]:
    """Every url captured 3-5 times (mean 4). The latest capture wins
    dedup; for about half the urls it is a body the gate rejects (empty,
    truncated, undecodable, not HTML or over max_bytes), while the older
    captures held a normal page."""
    from webxtract import synth

    rng = random.Random(seed)
    rows, kinds = [], []
    for k in range(RECRAWL_URLS):
        # capture counts and the bad half are fixed shares, so every seed
        # gives the same amount of work; the seed picks the content
        n_cap = (3, 4, 4, 5)[k % 4]
        base = 100 * k
        last = base + rng.choice(_BAD_SLOTS if k % 2 else _GOOD_SLOTS)
        url = f"https://recrawl{k % 97}.example/page/{k}"
        ts0 = EPOCH_US + k * 17_000_000
        for c in range(n_cap):
            doc_id = last if c == n_cap - 1 else base + rng.choice(_GOOD_SLOTS)
            d = synth.render_doc(doc_id, seed ^ (c * 0x9E37))
            rows.append((url, ts0 + c * HOUR_US, d["html"], d["text"],
                         d["lang"]))
            kinds.append(d["_family"])
    order = list(range(len(rows)))
    rng.shuffle(order)
    return (_page_rows_table([rows[i] for i in order]),
            [kinds[i] for i in order])


def _receipt_fields(rng: random.Random) -> tuple[str, str, list, float]:
    from webxtract import synth

    vendor = rng.choice(synth.VENDORS)
    date = f"{rng.randint(1, 12):02d}/{rng.randint(1, 28):02d}/{rng.randint(2020, 2024)}"
    items = [(rng.choice(synth.ITEMS), rng.randint(150, 4999) / 100.0)
             for _ in range(rng.randint(2, 6))]
    total = round(sum(p for _, p in items) * 1.1, 2)
    return vendor, date, items, total


def _flow_paragraphs(rng: random.Random) -> list[list[str]]:
    from webxtract import synth

    vendor, date, items, total = _receipt_fields(rng)
    paras = [vendor.split(), ["Date:", date]]
    paras += [name.split() + [f"${price:.2f}"] for name, price in items]
    paras.append(["Total:", f"${total:.2f}"])
    paras.append([rng.choice(synth.WORDS) for _ in range(rng.randint(8, 20))])
    return paras


def _pdf_payload(rng: random.Random, n_pages: int) -> bytes:
    from webxtract import synth
    from webxtract.ops.pdf import build_pdf

    pages = []
    for _ in range(n_pages):
        vendor, date, items, total = _receipt_fields(rng)
        words = [vendor.split(), ["Served", "on", date]]
        words += [name.split() + [f"${price:.2f}"] for name, price in items]
        words += [[rng.choice(synth.WORDS) for _ in range(rng.randint(3, 8))]
                  for _ in range(rng.randint(1, 4))]
        lines = [{"x": 72.0, "y": 720.0 - 16.0 * n, "size": 12, "words": w,
                  "op": rng.choice(("tj", "tjarr", "hex"))}
                 for n, w in enumerate(words)]
        kv = ("Total:", f"${total:.2f}", 72.0, 720.0 - 16.0 * len(words), 12)
        pages.append({"lines": lines, "kv": kv})
    return build_pdf(pages,
                     xref_kind=rng.choice(("table", "xrefstream", "objstm")),
                     flate=rng.random() < 0.7)


# Kind of row i is _OFFICE_CYCLE[i % 20]: real binary documents (20% PDF,
# 15% DOCX, 10% ODT, 10% RTF) beside pdfish (15%) and HTML (30%) pages, in
# the same shares for every seed. XLSX, PPTX and EPUB are left out until
# the flagship extracts them.
_OFFICE_CYCLE = (["pdf"] * 4 + ["docx"] * 3 + ["odt"] * 2 + ["rtf"] * 2
                 + ["pdfish"] * 3 + ["html"] * 6)


def _office_payload(kind: str, i: int, rng: random.Random, seed: int) -> bytes:
    from webxtract import synth
    from webxtract.ops.docx import build_docx
    from webxtract.ops.office import build_odt, build_rtf

    if kind == "pdf":
        return _pdf_payload(rng, 1 + (i // 20) % 2)
    if kind == "docx":
        return build_docx(_flow_paragraphs(rng), deflate=rng.random() < 0.5)
    if kind == "odt":
        return build_odt(_flow_paragraphs(rng))
    if kind == "rtf":
        return build_rtf(_flow_paragraphs(rng))
    slots = _PDFISH_SLOTS if kind == "pdfish" else _HTML_SLOTS
    doc_id = 100 * rng.randrange(1 << 20) + rng.choice(slots)
    return synth.render_doc(doc_id, seed)["html"]


def gen_office_partitioned(seed: int) -> tuple[pa.Table, list[str]]:
    """PDF, DOCX, ODT and RTF payloads mixed with pdfish and HTML pages;
    every 33rd url is captured again an hour later, and the shuffle puts
    most of those captures in another file."""
    rng = random.Random(seed)
    rows, kinds = [], []
    for i in range(OFFICE_FILES * OFFICE_ROWS_PER_FILE):
        kind = _OFFICE_CYCLE[i % len(_OFFICE_CYCLE)]
        url = f"https://office{i % 89}.example/{kind}/{i}"
        ts = EPOCH_US + i * 17_000_000
        for c in range(2 if i % 33 == 0 else 1):
            rows.append((url, ts + c * HOUR_US,
                         _office_payload(kind, i, rng, seed), kind, "en"))
            kinds.append(kind)
    order = list(range(len(rows)))
    rng.shuffle(order)
    return (_page_rows_table([rows[i] for i in order]),
            [kinds[i] for i in order])


GENERATORS = {
    "crawl_mix": (gen_crawl_mix, CRAWL_FILES),
    "recrawl_reject": (gen_recrawl_reject, RECRAWL_FILES),
    "office_partitioned": (gen_office_partitioned, OFFICE_FILES),
}


def _code_key() -> str:
    """Hash of the package source and this generator: a cached input and
    reference are reused only by the code that produced them."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.blake2b(digest_size=8)
    files = [os.path.abspath(__file__)]
    for d, _, fs in os.walk(os.path.join(root, "webxtract")):
        files += [os.path.join(d, f) for f in fs if f.endswith(".py")]
    for f in sorted(files):
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _write_files(t: pa.Table, out_dir: str, n_files: int) -> None:
    os.makedirs(out_dir)
    step = -(-t.num_rows // n_files)
    for j in range(n_files):
        pq.write_table(t.slice(j * step, step),
                       os.path.join(out_dir, f"part-{j:05d}.parquet"))


def _result_cols() -> list[str]:
    from webxtract import schema as S

    return [f.name for f in S.MODEL_RESULT]


def digests(t: pa.Table) -> list[tuple[str, str]]:
    """(url, digest) per row over every MODEL_RESULT column."""
    cols = _result_cols()
    t = t.select(cols)
    out = []
    for row in t.to_pylist():
        blob = json.dumps([row[c] for c in cols], default=str,
                          ensure_ascii=False)
        out.append((row["url"],
                    hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()))
    return out


def bad_rows(ref: dict[str, str], out: pa.Table) -> int:
    """Rows of ``out`` that are missing, extra or different from ``ref``,
    ignoring row order. A duplicated url counts as an extra row."""
    try:
        got = digests(out)
    except KeyError:  # a result column is missing: every row is wrong
        return len(ref) + out.num_rows
    seen: dict[str, str] = {}
    bad = 0
    for url, d in got:
        if url in seen or url not in ref:
            bad += 1
        else:
            seen[url] = d
    return bad + sum(1 for url, d in ref.items() if seen.get(url) != d)


def read_input(src: str) -> pa.Table:
    files = sorted(f for f in os.listdir(src) if f.endswith(".parquet"))
    return pa.concat_tables(pq.read_table(os.path.join(src, f))
                            for f in files)


def prepare(workload: str, seed: int) -> Input:
    """Generate (or reuse) the input for ``workload``/``seed`` and its
    reference digests."""
    from webxtract.pipeline import extract_table

    gen, n_files = GENERATORS[workload]
    d = os.path.join(WORK, "cache", f"{workload}-s{seed}-{_code_key()}")
    meta_p = os.path.join(d, "meta.json")
    if not os.path.exists(meta_p):
        tmp = d + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        t, kinds = gen(seed)
        _write_files(t, os.path.join(tmp, "input"), n_files)
        # the warm slice keeps the input's rows per file
        per_file = -(-t.num_rows // n_files)
        _write_files(t.slice(0, WARM_ROWS), os.path.join(tmp, "warm"),
                     -(-WARM_ROWS // per_file))
        t0 = time.perf_counter()
        ref_t = extract_table(t)
        ref_s = time.perf_counter() - t0
        ref = dict(digests(ref_t))
        if len(ref) != ref_t.num_rows:
            raise RuntimeError("reference output repeats a url")
        routes = collections.Counter(
            f"{k}:{r}" if r else k
            for k, r in zip(ref_t.column("route").to_pylist(),
                            ref_t.column("reject_reason").to_pylist()))
        stats = {
            "rows": t.num_rows,
            "files": n_files,
            "html_bytes": pc.sum(pc.binary_length(t.column("html"))).as_py(),
            "parquet_bytes": sum(
                os.path.getsize(os.path.join(tmp, "input", f))
                for f in os.listdir(os.path.join(tmp, "input"))),
            "kind_mix": dict(sorted(collections.Counter(kinds).items())),
            "dup_rate": round(1 - len(ref) / t.num_rows, 4),
            "expected_rows": len(ref),
            "reference_routes": dict(sorted(routes.items())),
            "reference_extract_table_s": round(ref_s, 4),
        }
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump({"stats": stats, "ref": ref}, f)
        shutil.rmtree(d, ignore_errors=True)
        os.replace(tmp, d)
    with open(meta_p) as f:
        meta = json.load(f)
    return Input(workload, seed, os.path.join(d, "input"),
                 os.path.join(d, "warm"), meta["ref"], meta["stats"])
