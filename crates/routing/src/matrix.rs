//! The routing matrix `R` and link-load accumulation.

use crate::{OdPair, Router};
use nws_topo::{LinkId, Topology};

/// The routing matrix of a measurement task: `entry(k, i)` is the fraction of
/// OD pair `k`'s traffic that traverses link `i` (paper §III: `r_{k,i} = 1`
/// if OD pair `i` traverses edge `j`, generalized to fractions under ECMP).
///
/// Stored as compressed sparse rows: an OD crosses a path's worth of links
/// out of `|E|`, so each row keeps only its `(link, fraction)` entries, link
/// ids ascending, and every build and sweep costs O(nnz) rather than
/// O(|F|·|E|). Stored fractions are in `(0, 1]`; an absent entry is 0.
#[derive(Debug, Clone)]
pub struct RoutingMatrix {
    ods: Vec<OdPair>,
    num_links: usize,
    /// `offsets[k]..offsets[k + 1]` spans row `k` of `entries`; length
    /// `|F| + 1`.
    offsets: Vec<usize>,
    /// `(link, fraction)` pairs, grouped by OD row, link ids ascending
    /// within each row.
    entries: Vec<(LinkId, f64)>,
}

impl RoutingMatrix {
    /// Builds the routing matrix for `ods` over `topo` using shortest-path
    /// routing with even ECMP splitting.
    pub fn build(topo: &Topology, ods: &[OdPair]) -> RoutingMatrix {
        let router = Router::new(topo);
        Self::build_with_router(&router, ods)
    }

    /// Builds the routing matrix reusing an existing router's SPF cache.
    pub fn build_with_router(router: &Router<'_>, ods: &[OdPair]) -> RoutingMatrix {
        let mut offsets = Vec::with_capacity(ods.len() + 1);
        offsets.push(0);
        let mut entries = Vec::new();
        let mut node_share = Vec::new();
        for &od in ods {
            router.append_ecmp_fractions(od, &mut node_share, &mut entries);
            offsets.push(entries.len());
        }
        RoutingMatrix {
            ods: ods.to_vec(),
            num_links: router.topology().num_links(),
            offsets,
            entries,
        }
    }

    /// Number of OD pairs (rows).
    pub fn num_ods(&self) -> usize {
        self.ods.len()
    }

    /// Number of links (columns).
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Number of stored `(link, fraction)` entries across all rows.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The OD pairs, in row order.
    pub fn ods(&self) -> &[OdPair] {
        &self.ods
    }

    /// OD `k`'s `(link, fraction)` entries, link ids ascending; empty if
    /// the OD is unroutable or a self-pair.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn row(&self, k: usize) -> &[(LinkId, f64)] {
        assert!(k < self.ods.len(), "OD index {k} out of range");
        &self.entries[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Fraction of OD `k`'s traffic on `link`.
    ///
    /// # Panics
    /// Panics if `k` or `link` is out of range.
    pub fn entry(&self, k: usize, link: LinkId) -> f64 {
        assert!(
            link.index() < self.num_links,
            "link index {} out of range",
            link.index()
        );
        let row = self.row(k);
        row.binary_search_by_key(&link, |&(l, _)| l)
            .map_or(0.0, |i| row[i].1)
    }

    /// True if OD `k` sends any traffic over `link`.
    pub fn traverses(&self, k: usize, link: LinkId) -> bool {
        self.entry(k, link) > 0.0
    }

    /// Links traversed by OD `k` (positive fraction), in link-id order.
    pub fn links_of_od(&self, k: usize) -> Vec<LinkId> {
        self.row(k).iter().map(|&(l, _)| l).collect()
    }

    /// The union of links traversed by any OD pair — the candidate monitor
    /// set `L ⊆ E` of the paper — in link-id order.
    pub fn covered_links(&self) -> Vec<LinkId> {
        let mut covered = vec![false; self.num_links];
        for &(l, _) in &self.entries {
            covered[l.index()] = true;
        }
        (0..self.num_links)
            .filter(|&i| covered[i])
            .map(LinkId::from_index)
            .collect()
    }

    /// Accumulates per-link loads from per-OD demands: `U = Rᵀ·d`.
    ///
    /// `demands[k]` is OD `k`'s traffic volume (any unit); the result is the
    /// volume each link carries from these ODs, in the same unit. Each link
    /// sums its terms in OD-row order.
    ///
    /// # Panics
    /// Panics if `demands.len() != self.num_ods()`.
    pub fn link_loads(&self, demands: &[f64]) -> Vec<f64> {
        assert_eq!(
            demands.len(),
            self.ods.len(),
            "demand vector length mismatch"
        );
        let mut loads = vec![0.0; self.num_links];
        for (k, &d) in demands.iter().enumerate() {
            for &(l, f) in self.row(k) {
                loads[l.index()] += f * d;
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_topo::geant;

    fn janet_ods(topo: &Topology) -> Vec<OdPair> {
        let janet = topo.require_node("JANET").unwrap();
        ["NL", "LU", "SK", "PL"]
            .iter()
            .map(|d| OdPair::new(janet, topo.require_node(d).unwrap()))
            .collect()
    }

    #[test]
    fn build_and_entries() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        assert_eq!(r.num_ods(), 4);
        assert_eq!(r.num_links(), t.num_links());

        // JANET->NL traverses access link + UK-NL.
        let uk = t.require_node("UK").unwrap();
        let nl = t.require_node("NL").unwrap();
        let uk_nl = t.link_between(uk, nl).unwrap();
        assert!(r.traverses(0, uk_nl));
        assert_eq!(r.entry(0, uk_nl), 1.0);

        // JANET->LU goes via FR, not NL.
        let fr = t.require_node("FR").unwrap();
        let lu = t.require_node("LU").unwrap();
        let fr_lu = t.link_between(fr, lu).unwrap();
        assert!(r.traverses(1, fr_lu));
        assert!(!r.traverses(1, uk_nl));
    }

    #[test]
    fn links_of_od_ordered_set() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        // JANET->SK: JANET-UK, UK-NL, NL-DE, DE-CZ, CZ-SK = 5 links.
        let links = r.links_of_od(2);
        assert_eq!(links.len(), 5);
        let labels: Vec<String> = links.iter().map(|&l| t.link_label(l)).collect();
        assert!(labels.contains(&"CZ-SK".to_string()));
        assert!(labels.contains(&"JANET-UK".to_string()));
    }

    #[test]
    fn covered_links_union() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        let covered = r.covered_links();
        // JANET-UK + UK-NL (NL) + UK-FR,FR-LU (LU) + NL-DE,DE-CZ,CZ-SK (SK)
        // + UK-SE,SE-PL (PL) = 9 links.
        assert_eq!(covered.len(), 9);
    }

    #[test]
    fn link_loads_accumulate() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        let demands = [30000.0, 20.0, 22.0, 1500.0];
        let loads = r.link_loads(&demands);
        // The access link carries everything.
        let access = nws_topo::janet_access_link(&t);
        assert!((loads[access.index()] - demands.iter().sum::<f64>()).abs() < 1e-9);
        // UK-NL carries NL + SK traffic (SK routed via NL-DE).
        let uk = t.require_node("UK").unwrap();
        let nl = t.require_node("NL").unwrap();
        let uk_nl = t.link_between(uk, nl).unwrap();
        assert!((loads[uk_nl.index()] - (30000.0 + 22.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "demand vector length mismatch")]
    fn wrong_demand_length_panics() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        let _ = r.link_loads(&[1.0, 2.0]);
    }

    #[test]
    fn rows_are_sorted_and_sum_to_nnz() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        let mut total = 0;
        for k in 0..r.num_ods() {
            let row = r.row(k);
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row {k} unsorted");
            for &(l, f) in row {
                assert_eq!(f, r.entry(k, l));
            }
            total += row.len();
        }
        assert_eq!(r.nnz(), total);
    }

    #[test]
    #[should_panic(expected = "link index")]
    fn entry_rejects_out_of_range_link() {
        // Row 0 of 4: a link one past the last must not read row 1.
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        let _ = r.entry(0, LinkId::from_index(r.num_links()));
    }

    #[test]
    fn empty_od_set() {
        let t = geant();
        let r = RoutingMatrix::build(&t, &[]);
        assert_eq!(r.num_ods(), 0);
        assert!(r.covered_links().is_empty());
        assert_eq!(r.link_loads(&[]).len(), t.num_links());
    }
}
