//! Quickstart: link one person's aliases across two tiny forums.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use darklight::core::batch::BatchError;
use darklight::prelude::*;

fn main() -> Result<(), BatchError> {
    // Build two toy forums. The same person ("persona 1") posts on both
    // under different aliases, with a persistent style and schedule; a
    // decoy persona posts only on forum B.
    let mut forum_a = Corpus::new("forum_a");
    let mut forum_b = Corpus::new("forum_b");
    let base = 1_486_375_200; // Monday 2017-02-06, 10:00 UTC

    let posts = |style: &str, offset_hours: i64| -> Vec<Post> {
        (0..70i64)
            .map(|i| {
                let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400 + offset_hours * 3_600;
                Post::new(
                    format!(
                        "{style} entry {i}: more notes with the same habits and phrasing as always"
                    ),
                    ts,
                )
            })
            .collect()
    };

    let mut target_a = User::new("night_gardener", Some(1));
    target_a.posts = posts(
        "my orchid greenhouse log... the phalaenopsis cuttings rooted nicely, humidity steady",
        0,
    );
    forum_a.users.push(target_a);

    let mut target_b = User::new("moss_witch", Some(1));
    target_b.posts = posts(
        "greenhouse log again :: phalaenopsis cuttings rooted, humidity sensors steady as usual",
        1,
    );
    forum_b.users.push(target_b);

    // A second person posts about engines on forum A...
    let mut mechanic_a = User::new("torque_monkey", Some(2));
    mechanic_a.posts = posts(
        "rebuilt the carburetor today; torque specs and gasket sealant notes for the garage",
        9,
    );
    forum_a.users.push(mechanic_a);

    // ...and under another alias on forum B.
    let mut mechanic_b = User::new("petrol_head", Some(2));
    mechanic_b.posts = posts(
        "garage log: carburetor rebuild again, rechecked torque specs and the gasket sealant",
        10,
    );
    forum_b.users.push(mechanic_b);

    // Link forum B's aliases against forum A's.
    let mut config = LinkerConfig::default();
    config.two_stage.threshold = 0.5;
    let linker = Linker::new(config);
    let matches = linker.try_link(&forum_a, &forum_b)?;

    println!("emitted {} match(es):", matches.len());
    for m in &matches {
        println!(
            "  {:<14} <-> {:<14} score {:.4}",
            m.known_alias, m.unknown_alias, m.score
        );
    }
    assert!(matches
        .iter()
        .any(|m| m.known_alias == "night_gardener" && m.unknown_alias == "moss_witch"));
    assert!(matches
        .iter()
        .any(|m| m.known_alias == "torque_monkey" && m.unknown_alias == "petrol_head"));
    println!("\nboth personas' alias pairs were linked, and never crossed.");
    Ok(())
}
