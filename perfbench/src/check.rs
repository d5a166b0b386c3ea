//! Output checks: the golden snapshot, feasibility and bit-identity.

use lcmsr_core::prelude::*;
use lcmsr_roadnet::graph::RoadNetwork;
use lcmsr_roadnet::subgraph::RegionView;
use lcmsr_service::api::RegionDto;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The committed golden snapshot of the 32-query tiny-NY workload.
pub const GOLDEN: &str = include_str!("../../tests/golden/regions_ny_tiny.txt");

/// The golden snapshot's lines grouped by their `ALGO qNN kind` prefix.
pub fn golden_blocks() -> BTreeMap<String, String> {
    let mut blocks: BTreeMap<String, String> = BTreeMap::new();
    for line in GOLDEN.lines().filter(|l| !l.starts_with('#')) {
        let key: Vec<&str> = line.splitn(4, ' ').take(3).collect();
        let block = blocks.entry(key.join(" ")).or_default();
        block.push_str(line);
        block.push('\n');
    }
    blocks
}

/// Renders regions exactly as the golden snapshot does: IEEE bit patterns
/// of the measures plus the sorted global node and edge ids.
pub fn render_golden(label: &str, top_k: bool, regions: &[Region]) -> String {
    let mut out = String::new();
    if regions.is_empty() {
        let _ = writeln!(out, "{label} (none)");
    }
    for (r, region) in regions.iter().enumerate() {
        let rank = if top_k {
            format!(" r{r}")
        } else {
            String::new()
        };
        let _ = write!(
            out,
            "{label}{rank} scaled={} weight={:016x} length={:016x} nodes=",
            region.scaled_weight,
            region.weight.to_bits(),
            region.length.to_bits()
        );
        let nodes: Vec<String> = region.nodes.iter().map(|n| n.0.to_string()).collect();
        let edges: Vec<String> = region.edges.iter().map(|e| e.0.to_string()).collect();
        let _ = writeln!(out, "{} edges={}", nodes.join(","), edges.join(","));
    }
    out
}

/// Why a region is infeasible for `query`, if it is: longer than ∆, a node
/// outside `Q.Λ`, or not connected.
pub fn infeasible(network: &RoadNetwork, query: &LcmsrQuery, region: &Region) -> Option<String> {
    if !region.is_feasible(query.delta) {
        return Some(format!(
            "length {} exceeds ∆ {}",
            region.length, query.delta
        ));
    }
    let rect = query.region_of_interest;
    if let Some(n) = region
        .nodes
        .iter()
        .find(|&&n| !rect.contains(&network.point(n)))
    {
        return Some(format!("node {} lies outside Q.Λ", n.0));
    }
    let view = RegionView::new(network, rect);
    if !view.is_connected_region(&region.nodes, &region.edges) {
        return Some("region is not connected".to_string());
    }
    None
}

/// Whether served regions are bit-identical to direct ones.
pub fn same_served(served: &[RegionDto], direct: &[Region]) -> bool {
    served.len() == direct.len()
        && served.iter().zip(direct).all(|(s, d)| {
            s.nodes.iter().copied().eq(d.nodes.iter().map(|n| n.0))
                && s.edges.iter().copied().eq(d.edges.iter().map(|e| e.0))
                && s.length.to_bits() == d.length.to_bits()
                && s.weight.to_bits() == d.weight.to_bits()
                && s.scaled_weight == d.scaled_weight
        })
}

/// Whether two region lists are bit-identical.
pub fn same_regions(a: &[Region], b: &[Region]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.nodes == y.nodes
                && x.edges == y.edges
                && x.length.to_bits() == y.length.to_bits()
                && x.weight.to_bits() == y.weight.to_bits()
                && x.scaled_weight == y.scaled_weight
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_blocks_cover_every_request_of_the_workload() {
        let blocks = golden_blocks();
        assert_eq!(blocks.len(), 3 * 32 * 2);
        assert!(blocks["TGEN q00 single"].starts_with("TGEN q00 single scaled="));
        assert!(blocks
            .values()
            .all(|b| (1..=3).contains(&b.lines().count())));
    }

    #[test]
    fn rendering_round_trips_a_golden_block() {
        let blocks = golden_blocks();
        let block = &blocks["Greedy q05 single"];
        let fields: Vec<&str> = block.trim_end().split(' ').collect();
        let hex = |f: &str, key: &str| {
            f64::from_bits(u64::from_str_radix(f.strip_prefix(key).unwrap(), 16).unwrap())
        };
        let ids = |f: &str, key: &str| -> Vec<u32> {
            f.strip_prefix(key)
                .unwrap()
                .split(',')
                .map(|x| x.parse().unwrap())
                .collect()
        };
        let region = Region {
            scaled_weight: fields[3].strip_prefix("scaled=").unwrap().parse().unwrap(),
            weight: hex(fields[4], "weight="),
            length: hex(fields[5], "length="),
            nodes: ids(fields[6], "nodes=")
                .into_iter()
                .map(lcmsr_roadnet::node::NodeId)
                .collect(),
            edges: ids(fields[7], "edges=")
                .into_iter()
                .map(lcmsr_roadnet::edge::EdgeId)
                .collect(),
        };
        assert_eq!(&render_golden("Greedy q05 single", false, &[region]), block);
    }
}
