//! Fig. 1: the spectrum of existing kernels, as a machine-readable
//! registry.
//!
//! Every row of the paper's Fig. 1 table is a [`KernelEntry`]: the
//! kernel, its kernel classes (columns 1–6), which benchmark suites use
//! it in batch ("B") or streaming ("S") mode (columns 7–16), and its
//! modification/output categories (columns 17–22). [`render_figure1`]
//! regenerates the table; `impl_path` cross-links each row to the item
//! in this workspace that runs it. Rows nothing here runs are survey-only
//! (empty `impl_path`); tests pin that set and make the compiler resolve
//! every non-empty path.

/// The kernel-class columns (first column group of Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelClass {
    /// Connectedness kernels (CCW, CCS, BFS...).
    Connectedness,
    /// Path analysis kernels (SSSP, APSP...).
    PathAnalysis,
    /// Centrality kernels (BC, PR...).
    Centrality,
    /// Clustering kernels (CCO, Jaccard...).
    Clustering,
    /// Subgraph isomorphism kernels (GTC, TL, SI).
    SubgraphIsomorphism,
    /// Everything else (anomaly detection, top-k search).
    Other,
}

/// The benchmark-suite columns (second column group of Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// Standalone kernel definitions.
    Standalone,
    /// Sandia Firehose.
    Firehose,
    /// Graph500.
    Graph500,
    /// GraphBLAS.
    GraphBlas,
    /// MIT/Amazon Graph Challenge.
    GraphChallenge,
    /// Berkeley GAP.
    GraphAlgorithmPlatform,
    /// HPC Graph Analysis (graphanalysis.org).
    HpcGraphAnalysis,
    /// Kepner & Gilbert's book kernels.
    KeplerGilbert,
    /// Georgia Tech STINGER.
    Stinger,
    /// The VAST challenge.
    Vast,
}

/// Batch or streaming membership of a kernel in a suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Batch ("B" in Fig. 1).
    Batch,
    /// Streaming ("S").
    Streaming,
    /// Both ("B/S").
    Both,
}

impl Mode {
    /// The Fig. 1 cell text.
    pub fn cell(&self) -> &'static str {
        match self {
            Mode::Batch => "B",
            Mode::Streaming => "S",
            Mode::Both => "B/S",
        }
    }
}

/// The modification/output columns (third column group of Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputCol {
    /// Modifies the graph itself.
    GraphModification,
    /// Computes a property per vertex.
    ComputeVertexProperty,
    /// Outputs a single global value.
    OutputGlobalValue,
    /// Emits O(1)-sized events.
    OutputO1Events,
    /// Emits lists up to O(|V|).
    OutputOVList,
    /// Emits lists up to O(|V|^k), k > 1.
    OutputOVkList,
}

/// One row of Fig. 1.
#[derive(Clone, Debug)]
pub struct KernelEntry {
    /// Row label (as printed in the paper).
    pub name: &'static str,
    /// Kernel classes it belongs to.
    pub classes: &'static [KernelClass],
    /// Suite membership with batch/streaming mode.
    pub suites: &'static [(Suite, Mode)],
    /// Output/modification categories.
    pub outputs: &'static [OutputCol],
    /// Where this workspace implements it ("" = survey-only row).
    pub impl_path: &'static str,
    /// Implementation variants this workspace carries beyond the row's
    /// canonical `impl_path` — alternate engines and representations
    /// (e.g. bottom-up BFS, compressed adjacency). Variants are *not*
    /// Fig. 1 rows: the figure's 22-row shape is pinned, and every
    /// variant computes the row's kernel bit-identically.
    pub variants: &'static [&'static str],
}

use KernelClass::*;
use Mode::*;
use OutputCol::*;
use Suite::*;

/// The full Fig. 1 registry, row for row.
pub fn registry() -> Vec<KernelEntry> {
    vec![
        KernelEntry {
            name: "Anomaly - Fixed Key",
            classes: &[Other],
            suites: &[(Standalone, Streaming), (Firehose, Streaming)],
            outputs: &[ComputeVertexProperty, OutputO1Events],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "Anomaly - Unbounded Key",
            classes: &[Other],
            suites: &[(Standalone, Streaming), (Firehose, Streaming)],
            outputs: &[ComputeVertexProperty, OutputO1Events],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "Anomaly - Two-level Key",
            classes: &[Other],
            suites: &[(Standalone, Streaming), (Firehose, Streaming)],
            outputs: &[OutputGlobalValue, OutputO1Events],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "BC: Betweenness Centrality",
            classes: &[Centrality],
            suites: &[
                (Graph500, Batch),
                (GraphChallenge, Batch),
                (HpcGraphAnalysis, Batch),
                (KeplerGilbert, Streaming),
            ],
            outputs: &[ComputeVertexProperty],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "BFS: Breadth First Search",
            classes: &[Connectedness],
            suites: &[
                (Graph500, Batch),
                (GraphBlas, Batch),
                (GraphChallenge, Batch),
                (GraphAlgorithmPlatform, Batch),
                (HpcGraphAnalysis, Batch),
                (KeplerGilbert, Batch),
            ],
            outputs: &[ComputeVertexProperty, OutputO1Events],
            impl_path: "ga_kernels::bfs::bfs_with",
            variants: &[
                "bottom-up / direction-optimizing (GAP's switch rule)",
                "bottom-up steps over 64-vertex blocks, serial or on the pool",
                "compressed adjacency (delta-varint CSR)",
            ],
        },
        KernelEntry {
            name: "Search for \"Largest\"",
            classes: &[Other],
            suites: &[(GraphChallenge, Batch)],
            outputs: &[OutputO1Events],
            impl_path: "ga_kernels::topk::top_k_by",
            variants: &[],
        },
        KernelEntry {
            name: "CCW: Weakly Connected Components",
            classes: &[Connectedness],
            suites: &[
                (GraphAlgorithmPlatform, Batch),
                (HpcGraphAnalysis, Batch),
                (KeplerGilbert, Streaming),
            ],
            outputs: &[ComputeVertexProperty, OutputO1Events],
            impl_path: "ga_kernels::cc::wcc_union_find",
            variants: &[
                "afforest (sampled union-find)",
                "compressed adjacency (delta-varint CSR)",
            ],
        },
        KernelEntry {
            name: "CCS: Strongly Connected Components",
            classes: &[Connectedness],
            suites: &[(GraphAlgorithmPlatform, Batch), (HpcGraphAnalysis, Batch)],
            outputs: &[OutputO1Events],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "CCO: Clustering Coefficients",
            classes: &[Centrality],
            suites: &[(HpcGraphAnalysis, Batch), (KeplerGilbert, Streaming)],
            outputs: &[ComputeVertexProperty],
            impl_path: "ga_kernels::cluster::clustering_coefficients",
            variants: &[],
        },
        KernelEntry {
            name: "CD: Community Detection",
            classes: &[Connectedness, PathAnalysis],
            suites: &[(HpcGraphAnalysis, Streaming)],
            outputs: &[ComputeVertexProperty, OutputO1Events],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "GC: Graph Contraction",
            classes: &[PathAnalysis],
            suites: &[(GraphChallenge, Batch), (GraphAlgorithmPlatform, Batch)],
            outputs: &[OutputGlobalValue],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "GP: Graph Partitioning",
            classes: &[PathAnalysis],
            suites: &[(GraphBlas, Both), (GraphAlgorithmPlatform, Batch)],
            outputs: &[OutputGlobalValue],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "GTC: Global Triangle Counting",
            classes: &[PathAnalysis, SubgraphIsomorphism],
            suites: &[(GraphChallenge, Batch)],
            outputs: &[OutputGlobalValue],
            impl_path: "ga_kernels::triangles::count_global",
            variants: &["compressed adjacency (delta-varint CSR)"],
        },
        KernelEntry {
            name: "Insert/Delete",
            classes: &[Centrality],
            suites: &[(HpcGraphAnalysis, Streaming)],
            outputs: &[GraphModification],
            impl_path: "ga_graph::dynamic::DynamicGraph",
            variants: &[],
        },
        KernelEntry {
            name: "Jaccard",
            classes: &[PathAnalysis, Clustering],
            suites: &[(Standalone, Both)],
            outputs: &[OutputOVList],
            impl_path: "ga_kernels::jaccard::all_pairs_above",
            variants: &[],
        },
        KernelEntry {
            name: "MIS: Maximally Independent Set",
            classes: &[Other],
            suites: &[(Firehose, Batch), (GraphChallenge, Batch)],
            outputs: &[],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "PR: PageRank",
            classes: &[Connectedness, Centrality],
            suites: &[(GraphChallenge, Batch)],
            outputs: &[ComputeVertexProperty],
            impl_path: "ga_kernels::pagerank::pagerank",
            variants: &["compressed adjacency (delta-varint CSR), decoded once per call"],
        },
        KernelEntry {
            name: "SSSP: Single Source Shortest Path",
            classes: &[Connectedness, PathAnalysis],
            suites: &[
                (Firehose, Batch),
                (GraphChallenge, Both),
                (GraphAlgorithmPlatform, Batch),
            ],
            outputs: &[ComputeVertexProperty, OutputO1Events],
            impl_path: "ga_kernels::sssp::sssp_with",
            variants: &[
                "Jacobi bucket phases, one row read per settle, serial or on the pool",
                "auto-delta (Meyer–Sanders: heaviest weight × n / m)",
                "compressed adjacency (delta-varint CSR)",
            ],
        },
        KernelEntry {
            name: "APSP: All pairs Shortest Path",
            classes: &[Connectedness, PathAnalysis],
            suites: &[(GraphAlgorithmPlatform, Batch)],
            outputs: &[OutputOVList],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "SI: General Subgraph Isomorphism",
            classes: &[PathAnalysis, SubgraphIsomorphism],
            suites: &[(Graph500, Both)],
            outputs: &[OutputOVkList],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "TL: Triangle Listing",
            classes: &[PathAnalysis, SubgraphIsomorphism],
            suites: &[(Graph500, Both)],
            outputs: &[OutputOVList],
            impl_path: "",
            variants: &[],
        },
        KernelEntry {
            name: "Geo & Temporal Correlation",
            classes: &[Clustering],
            suites: &[(KeplerGilbert, Both), (Vast, Both)],
            outputs: &[OutputO1Events],
            impl_path: "",
            variants: &[],
        },
    ]
}

/// Render the registry as a Fig. 1-style text table.
pub fn render_figure1() -> String {
    let rows = registry();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:<14} {:<34} {}\n",
        "Kernel", "Classes", "Suites (B=batch, S=streaming)", "Outputs"
    ));
    out.push_str(&"-".repeat(120));
    out.push('\n');
    for r in &rows {
        let classes: Vec<&str> = r.classes.iter().map(class_label).collect();
        let suites: Vec<String> = r
            .suites
            .iter()
            .map(|(s, m)| format!("{}:{}", suite_label(*s), m.cell()))
            .collect();
        let outputs: Vec<&str> = r.outputs.iter().map(output_label).collect();
        out.push_str(&format!(
            "{:<36} {:<14} {:<34} {}\n",
            r.name,
            classes.join(","),
            suites.join(" "),
            outputs.join(",")
        ));
        // Variants are continuation lines, not rows: Fig. 1's 22-row
        // shape stays pinned while the table still advertises the
        // alternate engines the workspace carries for the row.
        if !r.variants.is_empty() {
            out.push_str(&format!("{:<36} variants: {}\n", "", r.variants.join("; ")));
        }
    }
    out
}

fn class_label(c: &KernelClass) -> &'static str {
    match c {
        Connectedness => "Conn",
        PathAnalysis => "Path",
        Centrality => "Centr",
        Clustering => "Clust",
        SubgraphIsomorphism => "SubIso",
        Other => "Other",
    }
}

fn suite_label(s: Suite) -> &'static str {
    match s {
        Standalone => "Standalone",
        Firehose => "Firehose",
        Graph500 => "Graph500",
        GraphBlas => "GraphBLAS",
        GraphChallenge => "GraphChal",
        GraphAlgorithmPlatform => "GAP",
        HpcGraphAnalysis => "HPC-GA",
        KeplerGilbert => "K&G",
        Stinger => "STINGER",
        Vast => "VAST",
    }
}

fn output_label(o: &OutputCol) -> &'static str {
    match o {
        GraphModification => "graph-mod",
        ComputeVertexProperty => "vertex-prop",
        OutputGlobalValue => "global",
        OutputO1Events => "O(1)-events",
        OutputOVList => "O(V)-list",
        OutputOVkList => "O(V^k)-list",
    }
}

/// Streaming rows (any suite membership with an S).
pub fn streaming_kernels() -> Vec<KernelEntry> {
    registry()
        .into_iter()
        .filter(|k| {
            k.suites
                .iter()
                .any(|(_, m)| matches!(m, Mode::Streaming | Mode::Both))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_count_matches_figure() {
        // Fig. 1 has 22 kernel rows.
        assert_eq!(registry().len(), 22);
    }

    #[test]
    fn no_one_kernel_is_universal() {
        // The paper's take-away: no kernel appears in every suite.
        let all_suites = 10;
        for k in registry() {
            let mut suites: Vec<Suite> = k.suites.iter().map(|&(s, _)| s).collect();
            suites.dedup();
            assert!(
                suites.len() < all_suites,
                "{} claims universal suite coverage",
                k.name
            );
        }
    }

    #[test]
    fn streaming_and_batch_differ() {
        // A significant difference between streaming and batch kernels:
        // neither set contains the other.
        let streaming: Vec<String> = streaming_kernels()
            .iter()
            .map(|k| k.name.to_string())
            .collect();
        assert!(!streaming.is_empty());
        assert!(streaming.len() < registry().len());
        assert!(streaming.iter().any(|n| n.contains("Anomaly")));
        // BFS is batch-only in the figure.
        assert!(!streaming.iter().any(|n| n.contains("BFS")));
    }

    #[test]
    fn survey_only_rows_are_pinned() {
        let survey_only: Vec<&str> = registry()
            .iter()
            .filter(|k| k.impl_path.is_empty())
            .map(|k| k.name)
            .collect();
        assert_eq!(
            survey_only,
            [
                "Anomaly - Fixed Key",
                "Anomaly - Unbounded Key",
                "Anomaly - Two-level Key",
                "BC: Betweenness Centrality",
                "CCS: Strongly Connected Components",
                "CD: Community Detection",
                "GC: Graph Contraction",
                "GP: Graph Partitioning",
                "MIS: Maximally Independent Set",
                "APSP: All pairs Shortest Path",
                "SI: General Subgraph Isomorphism",
                "TL: Triangle Listing",
                "Geo & Temporal Correlation",
            ]
        );
        for k in registry().iter().filter(|k| !k.impl_path.is_empty()) {
            assert!(k.impl_path.starts_with("ga_"), "{}", k.impl_path);
        }
    }

    /// Names each path as Rust (so the build fails if it stops
    /// resolving) and returns it as the string the registry stores.
    macro_rules! resolved_paths {
        ($($($seg:ident)::+),* $(,)?) => {{
            $({
                #[allow(unused_imports)]
                use $($seg)::+;
            })*
            vec![$([$(stringify!($seg)),+].join("::")),*]
        }};
    }

    #[test]
    fn every_impl_path_resolves() {
        let mut resolved = resolved_paths![
            ga_kernels::bfs::bfs_with,
            ga_kernels::topk::top_k_by,
            ga_kernels::cc::wcc_union_find,
            ga_kernels::cluster::clustering_coefficients,
            ga_kernels::triangles::count_global,
            ga_graph::dynamic::DynamicGraph,
            ga_kernels::jaccard::all_pairs_above,
            ga_kernels::pagerank::pagerank,
            ga_kernels::sssp::sssp_with,
        ];
        let mut listed: Vec<String> = registry()
            .iter()
            .filter(|k| !k.impl_path.is_empty())
            .map(|k| k.impl_path.to_string())
            .collect();
        resolved.sort();
        listed.sort();
        assert_eq!(resolved, listed);
    }

    #[test]
    fn every_row_has_a_class() {
        for k in registry() {
            assert!(!k.classes.is_empty(), "{} has no class", k.name);
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let table = render_figure1();
        for k in registry() {
            assert!(table.contains(k.name), "missing row {}", k.name);
        }
        assert!(table.contains("Graph500:B"));
        assert!(table.contains("Firehose:S"));
    }

    #[test]
    fn variants_annotate_rows_without_adding_rows() {
        let rows = registry();
        // The GAP-parity kernels advertise their alternate engines.
        for name in [
            "BFS: Breadth First Search",
            "PR: PageRank",
            "SSSP: Single Source Shortest Path",
            "CCW: Weakly Connected Components",
            "GTC: Global Triangle Counting",
        ] {
            let row = rows.iter().find(|k| k.name == name).unwrap();
            assert!(!row.variants.is_empty(), "{name} lost its variants");
            assert!(
                row.variants
                    .iter()
                    .any(|v| v.contains("compressed adjacency")),
                "{name} must list the compressed-adjacency variant"
            );
        }
        // Variants render as continuation lines, so the table's row
        // count stays the figure's 22 + header + rule.
        let table = render_figure1();
        let kernel_rows = table
            .lines()
            .filter(|l| rows.iter().any(|k| l.starts_with(k.name)))
            .count();
        assert_eq!(kernel_rows, 22, "variants must not become rows");
        assert!(table.contains("variants: compressed adjacency (delta-varint CSR), decoded once"));
        assert!(table.contains("64-vertex blocks"));
    }
}
