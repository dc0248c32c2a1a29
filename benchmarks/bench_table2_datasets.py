"""Table 2: LinkBench dataset statistics.

The paper reports, per dataset: number of vertices, number of edges,
average degree, max degree, and CSV file size.  We regenerate the same
columns at the reproduction's (shrunk) scales; the properties that
must hold are avg degree ~4.2-4.3 and a max degree orders of magnitude
above the average (Zipf skew + hub).
"""

from __future__ import annotations

from paper import format_bytes, format_table, write_result
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDataset


def test_table2_dataset_stats():
    tables = []
    for scale, config in (("small", LinkBenchConfig.small()), ("large", LinkBenchConfig.large())):
        stats = LinkBenchDataset(config).stats()

        assert 3.5 <= stats.avg_degree <= 5.5, "average degree should track the paper's ~4.2"
        assert stats.max_degree > 20 * stats.avg_degree, "degree distribution must be skewed"
        assert stats.n_vertices == config.n_vertices

        tables.append(
            format_table(
                ["Linkbench Dataset", "Num Of Vertices", "Num Of Edges", "Avg Degree",
                 "Max Degree", "CSV Size"],
                [[
                    config.name,
                    stats.n_vertices,
                    stats.n_edges,
                    f"{stats.avg_degree:.1f}",
                    stats.max_degree,
                    format_bytes(stats.csv_bytes),
                ]],
                title=f"Table 2 ({scale}): Linkbench dataset",
            )
        )
    write_result("table2_datasets", *tables)
