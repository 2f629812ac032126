"""Every metric the benchmark reports, with its unit, its direction and the
layer (module of ``webxtract``) it measures. Each per-layer metric also
names the end-to-end metric it should move and the workload that shows
it; "none" marks a layer predicted to stay flat. BENCHMARK.json lists the
same names, units and directions.
"""

# (name, unit, better, layer)
END_TO_END = [
    ("docs_per_s", "docs/s", "higher", "pipeline"),
    ("setup_s", "s", "lower", "pipeline"),
    ("peak_rss_mb", "MB", "lower", "pipeline"),
]

# Reported on the report line of every run rather than in the result:
# it is 0 on a correct program, and the result's attempted/failed carry it.
FAILED_FRAC = ("failed_frac", "ratio", "lower", "check")

# (name, unit, better, layer, should move, on workload)
PER_LAYER = [
    ("htmldom.parse.self_s", "s", "lower", "htmldom",
     "docs_per_s, peak_rss_mb", "crawl_mix"),
    ("htmldom.nodes_per_doc", "count", "lower", "htmldom",
     "docs_per_s, peak_rss_mb", "crawl_mix"),
    ("htmldom.decode.self_s", "s", "lower", "htmldom",
     "docs_per_s", "crawl_mix"),
    ("boilerplate.segment.self_s", "s", "lower", "boilerplate",
     "docs_per_s", "crawl_mix"),
    ("boilerplate.content_frac", "ratio", "higher", "boilerplate",
     "docs_per_s", "crawl_mix"),
    ("blocks.self_s", "s", "lower", "blocks", "docs_per_s", "crawl_mix"),
    ("blocks.per_doc", "count", "lower", "blocks", "docs_per_s", "crawl_mix"),
    ("normalize.self_s", "s", "lower", "normalize", "docs_per_s",
     "crawl_mix"),
    ("quality.self_s", "s", "lower", "quality", "docs_per_s",
     "recrawl_reject"),
    ("quality.accept_frac", "ratio", "higher", "quality", "docs_per_s",
     "recrawl_reject"),
    ("dedup.winners_s", "s", "lower", "dedup", "docs_per_s, peak_rss_mb",
     "recrawl_reject"),
    ("dedup.kept_frac", "ratio", "higher", "dedup",
     "docs_per_s, peak_rss_mb", "recrawl_reject"),
    ("pdflayout.self_s", "s", "lower", "pdflayout", "docs_per_s",
     "office_partitioned"),
    ("ops.pdf.self_s", "s", "lower", "ops.pdf", "docs_per_s",
     "office_partitioned"),
    ("ops.office.self_s", "s", "lower", "ops.office", "docs_per_s",
     "office_partitioned"),
    ("review.route.self_s", "s", "lower", "review", "none", "all"),
    ("extract.doc_ms_p50", "ms", "lower", "pipeline", "docs_per_s",
     "crawl_mix, office_partitioned"),
    ("extract.doc_ms_p99", "ms", "lower", "pipeline", "docs_per_s",
     "crawl_mix, office_partitioned"),
    ("pipeline.read.busy_s", "s", "lower", "pipeline", "docs_per_s", "all"),
    ("pipeline.map.busy_s", "s", "lower", "pipeline", "docs_per_s", "all"),
    ("pipeline.tasks", "count", "lower", "pipeline", "docs_per_s", "all"),
    ("pipeline.idle_frac", "ratio", "lower", "pipeline", "docs_per_s", "all"),
    ("checkpoint.partitions", "count", "higher", "checkpoint", "docs_per_s",
     "office_partitioned"),
    ("checkpoint.s_per_partition", "s", "lower", "checkpoint", "docs_per_s",
     "office_partitioned"),
    ("checkpoint.files_written", "count", "lower", "checkpoint",
     "docs_per_s", "office_partitioned"),
]
