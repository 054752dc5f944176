//! Shared by the integration tests that scrape STATS.

use std::collections::HashMap;

/// Whole-scrape well-formedness of a Prometheus text exposition: every
/// sample line parses as `name[{labels}] value`, its family was declared
/// above it by exactly one `# HELP` and one `# TYPE`, and no family is
/// declared twice anywhere in the scrape.
pub fn assert_well_formed_scrape(text: &str) {
    let mut helps: HashMap<&str, usize> = HashMap::new();
    let mut types: HashMap<&str, (usize, &str)> = HashMap::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            assert!(!help.is_empty(), "empty help: {line:?}");
            *helps.entry(name).or_default() += 1;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
            assert!(
                ["counter", "gauge", "summary"].contains(&kind),
                "unknown type: {line:?}"
            );
            types.entry(name).or_insert((0, kind)).0 += 1;
        } else {
            samples += 1;
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            value
                .parse::<f64>()
                .unwrap_or_else(|e| panic!("unparseable value in {line:?}: {e}"));
            let name = match series.split_once('{') {
                Some((name, labels)) => {
                    let labels = labels
                        .strip_suffix('}')
                        .unwrap_or_else(|| panic!("unclosed labels in {line:?}"));
                    assert_labels(labels, line);
                    name
                }
                None => series,
            };
            assert!(
                !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in {line:?}"
            );
            // A summary's `_sum` / `_count` samples belong to its family.
            let family = ["_sum", "_count"]
                .iter()
                .filter_map(|suffix| name.strip_suffix(suffix))
                .find(|base| types.get(base).is_some_and(|(_, kind)| *kind == "summary"))
                .unwrap_or(name);
            assert_eq!(
                helps.get(family),
                Some(&1),
                "no single # HELP above {line:?}"
            );
            assert_eq!(
                types.get(family).map(|(n, _)| *n),
                Some(1),
                "no single # TYPE above {line:?}"
            );
        }
    }
    assert!(samples > 0, "empty scrape");
    for (name, n) in &helps {
        assert_eq!(*n, 1, "family {name} has {n} # HELP lines");
        assert!(types.contains_key(name), "family {name} has no # TYPE");
    }
    for (name, (n, _)) in &types {
        assert_eq!(*n, 1, "family {name} has {n} # TYPE lines");
        assert!(helps.contains_key(name), "family {name} has no # HELP");
    }
}

/// `k="v",k2="v2"` with `\\`, `\"` and `\n` escapes inside values.
fn assert_labels(labels: &str, line: &str) {
    let mut rest = labels;
    loop {
        let (key, after) = rest
            .split_once("=\"")
            .unwrap_or_else(|| panic!("label without =\" in {line:?}"));
        assert!(
            !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad label name in {line:?}"
        );
        let mut chars = after.char_indices();
        let end = loop {
            match chars.next() {
                Some((_, '\\')) => {
                    chars.next();
                }
                Some((i, '"')) => break i,
                Some(_) => {}
                None => panic!("unterminated label value in {line:?}"),
            }
        };
        match &after[end + 1..] {
            "" => return,
            more => {
                rest = more
                    .strip_prefix(',')
                    .unwrap_or_else(|| panic!("junk after label value in {line:?}"));
            }
        }
    }
}
