//! The seeded campaign mix of the `serve-dse` workload.
//!
//! Every campaign is one the repository already sends to the service:
//! the CI `serve-smoke` job's spool campaigns and the campaigns of
//! `crates/serve/tests/service_determinism.rs` (see [`Template`]), sent
//! by the CI job's two clients with its priorities. The seed decides
//! each client's order and the DSE strategy seeds; the kinds and
//! workloads are the same for every seed, so the amount of work barely
//! moves between seeds. Each pass of a run draws its own mix from the
//! seed. The service only ever sees the generated spec texts.

/// The two closed-loop clients and their priorities, as in the CI
/// `serve-smoke` job (`a-grid.campaign`, `b-grid.campaign`).
pub const CLIENTS: [(&str, u32); 2] = [("alice", 3), ("bob", 1)];

/// One campaign of the mix, before it is rendered for a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    /// CI `serve-smoke` `a-grid`/`b-grid`: `libq_like,md5_like` under
    /// `bl,dla`, 5000 warm, 20000 window.
    SmokeGrid,
    /// CI `serve-smoke` `c-dse`: a random search of the `quick` space on
    /// `libq_like`, 6 trials, `3:2000:functional` (the job uses seed 1).
    SmokeDse(u64),
    /// `service_determinism.rs` `DSE_CAMPAIGN`: a random search of the
    /// `quick` space on `libq_like`, 4 trials, `2:800:none` (the tests
    /// use seed 7).
    TestDse(u64),
    /// `service_determinism.rs` memo-reuse grid: `md5_like` under
    /// `bl,dla`, 300 warm, 1500 window.
    TestGrid,
    /// `service_determinism.rs` sampled-parity campaign: `libq_like`
    /// under `bl,r3`, `2:800:none`.
    TestSample,
}

impl Template {
    /// The campaign spec text for `client` (grammar of
    /// `r3dla_serve::CampaignSpec`).
    pub fn render(&self, client: usize) -> String {
        let (name, priority) = CLIENTS[client];
        let body = match self {
            Template::SmokeGrid => "kind grid\nworkloads libq_like,md5_like\nconfigs bl,dla\n\
                                   warm 5000\nwindow 20000\n"
                .to_string(),
            Template::SmokeDse(seed) => format!(
                "kind dse\nworkloads libq_like\nspace quick\nstrategy random\nseed {seed}\n\
                 trials 6\nsample 3:2000:functional\n"
            ),
            Template::TestDse(seed) => format!(
                "kind dse\nworkloads libq_like\nspace quick\nstrategy random\nseed {seed}\n\
                 trials 4\nsample 2:800:none\n"
            ),
            Template::TestGrid => {
                "kind grid\nworkloads md5_like\nconfigs bl,dla\nwarm 300\nwindow 1500\n".to_string()
            }
            Template::TestSample => {
                "kind sample\nworkloads libq_like\nconfigs bl,r3\nsample 2:800:none\n".to_string()
            }
        };
        format!(
            "campaign r3dla-serve-v1\nclient {name}\npriority {priority}\nscale tiny\n{body}end\n"
        )
    }

    /// A name for the campaign that ignores the DSE seed.
    pub fn label(&self) -> &'static str {
        match self {
            Template::SmokeGrid => "smoke-grid",
            Template::SmokeDse(_) => "smoke-dse",
            Template::TestDse(_) => "test-dse",
            Template::TestGrid => "test-grid",
            Template::TestSample => "test-sample",
        }
    }
}

/// SplitMix64: a tiny seeded generator, so the mix depends on nothing
/// but the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Each client's ordered campaign list for pass `pass` of the run with
/// `seed`: six campaigns each, in a shuffled order. A client sends each
/// template once and the test search a second time, every search with
/// a strategy seed of its own. The grids and the sampled campaign are
/// the same for both clients, so their cells repeat across clients; a
/// client's two test searches share their sample spec and the `quick`
/// space, so their incumbents and some points repeat within the client.
pub fn serve_mix(seed: u64, pass: u64) -> [Vec<Template>; 2] {
    let mut rng = SplitMix(SplitMix(seed).next() ^ pass);
    [0, 1].map(|_| {
        let mut list = vec![
            Template::SmokeGrid,
            Template::SmokeDse(rng.next() % 1000),
            Template::TestDse(rng.next() % 1000),
            Template::TestDse(rng.next() % 1000),
            Template::TestGrid,
            Template::TestSample,
        ];
        rng.shuffle(&mut list);
        list
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(seed: u64) -> Vec<Vec<String>> {
        serve_mix(seed, 0)
            .iter()
            .enumerate()
            .map(|(c, list)| list.iter().map(|t| t.render(c)).collect())
            .collect()
    }

    #[test]
    fn same_seed_same_campaign_texts() {
        assert_eq!(texts(7), texts(7));
        assert_ne!(texts(7), texts(8), "the seed must change the mix");
        assert_ne!(
            serve_mix(7, 0),
            serve_mix(7, 1),
            "each pass draws its own mix"
        );
    }

    #[test]
    fn every_seed_sends_the_same_kinds() {
        for seed in 0..40 {
            for list in serve_mix(seed, seed % 3) {
                assert_eq!(list.len(), 6);
                let mut labels: Vec<&str> = list.iter().map(Template::label).collect();
                labels.sort_unstable();
                labels.dedup();
                assert_eq!(labels.len(), 5, "seed {seed}: every template");
            }
        }
    }

    #[test]
    fn cells_repeat_within_and_across_clients() {
        for seed in 0..20 {
            let [a, b] = serve_mix(seed, 0);
            for list in [&a, &b] {
                let tests = list
                    .iter()
                    .filter(|t| matches!(t, Template::TestDse(_)))
                    .count();
                assert_eq!(tests, 2, "seed {seed}: two searches share incumbents");
            }
            for t in [
                Template::SmokeGrid,
                Template::TestGrid,
                Template::TestSample,
            ] {
                assert!(a.contains(&t) && b.contains(&t), "seed {seed}");
            }
        }
    }

    #[test]
    fn generated_specs_parse_and_resolve() {
        for list in texts(3) {
            for text in list {
                let spec = r3dla_serve::CampaignSpec::parse(&text).expect(&text);
                spec.to_request().expect(&text);
            }
        }
    }
}
