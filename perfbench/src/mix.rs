//! The seeded `serve` request mix.

use firmup::firmware::packages::all_cves;
use firmup::firmware::rng::{SliceRandom, SmallRng};

/// Request classes and their share of the mix in percent. The median
/// falls inside the `cve` class and any tail percentile above 85 inside
/// the `full` class, so neither lands on a class boundary.
pub const CLASSES: [(&str, usize); 3] = [("cve", 60), ("top_k", 25), ("full", 15)];

/// `top_k` of the prefiltered request class.
pub const TOP_K: usize = 32;

/// Requests per shuffled deck. Every deck holds the class shares
/// exactly, the `cve` share split evenly over the CVEs (36 = 4 × 9), so
/// seeds differ in request order, never in proportions: a percentile
/// cannot drift across the latency steps between CVEs as a random draw
/// of proportions would make it.
const DECK: usize = 60;

/// One client's endless, seeded request sequence: shuffled decks.
pub struct Mix {
    rng: SmallRng,
    deck: Vec<(&'static str, String)>,
}

impl Mix {
    /// The sequence of client `client` for `seed`.
    pub fn new(seed: u64, client: u64) -> Mix {
        Mix {
            rng: SmallRng::seed_from_u64(seed ^ (client + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            deck: Vec::new(),
        }
    }

    /// Next request as `(class, newline-JSON body)`.
    pub fn next_request(&mut self) -> (&'static str, String) {
        if self.deck.is_empty() {
            let cves = all_cves();
            for (class, pct) in CLASSES {
                for i in 0..DECK * pct / 100 {
                    let body = match class {
                        "cve" => cve_body(cves[i % cves.len()].cve),
                        "top_k" => format!("{{\"top_k\":{TOP_K}}}"),
                        _ => "{}".to_string(),
                    };
                    self.deck.push((class, body));
                }
            }
            self.deck.shuffle(&mut self.rng);
        }
        self.deck.pop().expect("a freshly filled deck is not empty")
    }

    /// Every distinct request body the mix can produce.
    pub fn all_bodies() -> Vec<String> {
        let mut bodies: Vec<String> = all_cves().iter().map(|c| cve_body(c.cve)).collect();
        bodies.push(format!("{{\"top_k\":{TOP_K}}}"));
        bodies.push("{}".to_string());
        bodies
    }
}

fn cve_body(cve: &str) -> String {
    format!("{{\"cve\":\"{cve}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: u64, n: usize) -> Vec<String> {
        let mut m = Mix::new(seed, client);
        (0..n).map(|_| m.next_request().1).collect()
    }

    #[test]
    fn same_seed_gives_the_same_mix() {
        assert_eq!(take(7, 0, 500), take(7, 0, 500));
        assert_ne!(take(7, 0, 500), take(8, 0, 500));
        assert_ne!(take(7, 0, 500), take(7, 1, 500));
    }

    #[test]
    fn every_deck_holds_the_exact_shares_and_known_bodies() {
        let mut m = Mix::new(3, 0);
        let bodies = Mix::all_bodies();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10 * DECK {
            let (class, body) = m.next_request();
            assert!(bodies.contains(&body), "{body}");
            *counts.entry((class, body)).or_insert(0) += 1;
        }
        // Every body occurs; a class's requests split evenly over its
        // bodies (nine CVEs, one `top_k`, one `{}`).
        assert_eq!(counts.len(), bodies.len());
        for ((class, _), n) in &counts {
            let pct = CLASSES
                .iter()
                .find(|c| c.0 == *class)
                .expect("known class")
                .1;
            let per_class = counts.keys().filter(|(c, _)| c == class).count();
            assert_eq!(*n, 10 * DECK * pct / 100 / per_class, "{class}");
        }
    }
}
