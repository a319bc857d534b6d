//! Topical lexicons for the synthetic web.
//!
//! Each topic draws its vocabulary from a lexicon of real English words so
//! that the whole pipeline (stemming, MI feature selection, SVM training)
//! runs on realistic text and the paper's qualitative examples reproduce —
//! e.g. MI selection on "Data Mining" surfacing stems like `mine`,
//! `knowledg`, `olap`, `pattern`, `cluster` (Section 2.3).
//!
//! Besides topical lexicons there is a shared *common* academic/web
//! vocabulary present in all documents (this is what makes the systematic
//! "OTHERS" negative examples of Section 3.1 matter) and a deterministic
//! pseudo-word *filler* generator standing in for the long tail of real
//! text.

/// Common academic/web vocabulary shared by every generated page.
pub const COMMON: &[&str] = &[
    "university",
    "department",
    "research",
    "group",
    "project",
    "paper",
    "publication",
    "conference",
    "journal",
    "workshop",
    "student",
    "professor",
    "course",
    "lecture",
    "seminar",
    "report",
    "technical",
    "abstract",
    "introduction",
    "overview",
    "approach",
    "method",
    "result",
    "experiment",
    "evaluation",
    "system",
    "work",
    "new",
    "based",
    "using",
    "show",
    "present",
    "describe",
    "problem",
    "application",
    "information",
    "computer",
    "science",
    "international",
    "proceedings",
    "volume",
    "editor",
    "press",
    "year",
    "study",
    "analysis",
    "general",
    "important",
    "different",
    "large",
    "small",
    "time",
    "number",
    "section",
    "figure",
    "example",
    "related",
    "contact",
    "office",
    "phone",
    "address",
    "news",
    "events",
    "people",
    "staff",
    "teaching",
    "spring",
    "fall",
    "semester",
    "online",
    "available",
    "version",
    "current",
    "recent",
];

/// Database research (portal-generation topic, Tables 1-3).
pub const DATABASE_RESEARCH: &[&str] = &[
    "database",
    "databases",
    "query",
    "queries",
    "transaction",
    "transactions",
    "relational",
    "schema",
    "index",
    "indexing",
    "optimization",
    "optimizer",
    "storage",
    "recovery",
    "logging",
    "concurrency",
    "locking",
    "buffer",
    "join",
    "joins",
    "aggregation",
    "tuple",
    "tuples",
    "table",
    "tables",
    "sql",
    "xml",
    "data",
    "management",
    "dbms",
    "olap",
    "oltp",
    "warehouse",
    "replication",
    "distributed",
    "parallel",
    "scalability",
    "throughput",
    "benchmark",
    "workload",
    "materialized",
    "view",
    "views",
    "integration",
    "semistructured",
    "stream",
    "streams",
    "caching",
    "consistency",
    "isolation",
    "durability",
    "atomicity",
    "serializability",
    "commit",
    "rollback",
    "checkpoint",
    "undo",
    "redo",
    "acid",
    "btree",
    "hash",
    "partitioning",
];

/// Data mining (subtopic used for the Section 2.3 feature-selection
/// example).
pub const DATA_MINING: &[&str] = &[
    "mining",
    "mine",
    "knowledge",
    "discovery",
    "discovering",
    "olap",
    "pattern",
    "patterns",
    "genetic",
    "cluster",
    "clustering",
    "clusters",
    "dataset",
    "datasets",
    "frame",
    "association",
    "rules",
    "classification",
    "decision",
    "tree",
    "frequent",
    "itemset",
    "itemsets",
    "support",
    "confidence",
    "outlier",
    "anomaly",
    "predictive",
    "model",
    "models",
    "training",
    "learning",
    "feature",
    "features",
    "attribute",
    "attributes",
    "instances",
    "sampling",
    "scalable",
    "algorithms",
    "kdd",
];

/// Web / information retrieval.
pub const WEB_IR: &[&str] = &[
    "retrieval",
    "search",
    "engine",
    "ranking",
    "relevance",
    "precision",
    "recall",
    "crawler",
    "crawling",
    "hyperlink",
    "hyperlinks",
    "web",
    "page",
    "pages",
    "document",
    "documents",
    "term",
    "terms",
    "vector",
    "cosine",
    "stemming",
    "stopword",
    "corpus",
    "indexing",
    "inverted",
    "authority",
    "authorities",
    "hub",
    "hubs",
    "pagerank",
    "classification",
    "classifier",
    "svm",
    "bayes",
    "entropy",
    "portal",
    "ontology",
    "taxonomy",
    "directory",
    "topic",
    "topics",
    "focused",
    "filtering",
];

/// Transaction recovery / ARIES (expert-search topic, Figures 4-5).
pub const ARIES_RECOVERY: &[&str] = &[
    "aries",
    "recovery",
    "algorithm",
    "logging",
    "log",
    "write",
    "ahead",
    "wal",
    "checkpoint",
    "checkpointing",
    "redo",
    "undo",
    "rollback",
    "crash",
    "restart",
    "transaction",
    "transactions",
    "lsn",
    "pageid",
    "latch",
    "lock",
    "locking",
    "granularity",
    "semantics",
    "media",
    "failure",
    "failures",
    "buffer",
    "manager",
    "dirty",
    "page",
    "pages",
    "analysis",
    "pass",
    "history",
    "repeating",
    "compensation",
    "record",
    "records",
    "mohan",
    "database",
    "storage",
    "shadow",
    "fuzzy",
];

/// Open-source software projects (the needle pages of the expert search).
pub const OPEN_SOURCE: &[&str] = &[
    "open",
    "source",
    "code",
    "release",
    "releases",
    "public",
    "domain",
    "license",
    "gpl",
    "distribution",
    "download",
    "repository",
    "cvs",
    "tarball",
    "build",
    "compile",
    "install",
    "installation",
    "documentation",
    "manual",
    "api",
    "library",
    "libraries",
    "binaries",
    "binary",
    "software",
    "project",
    "version",
    "stable",
    "implementation",
    "package",
    "packages",
    "platform",
    "unix",
    "linux",
    "windows",
];

/// Algebra (competing sibling of stochastics under mathematics).
pub const ALGEBRA: &[&str] = &[
    "algebra",
    "algebraic",
    "group",
    "groups",
    "ring",
    "rings",
    "field",
    "fields",
    "polynomial",
    "polynomials",
    "vector",
    "space",
    "linear",
    "matrix",
    "matrices",
    "eigenvalue",
    "homomorphism",
    "isomorphism",
    "kernel",
    "ideal",
    "module",
    "galois",
    "abelian",
    "commutative",
    "finite",
    "theorem",
    "proof",
    "lemma",
];

/// Stochastics (competing sibling of algebra).
pub const STOCHASTICS: &[&str] = &[
    "probability",
    "stochastic",
    "random",
    "variable",
    "variables",
    "distribution",
    "distributions",
    "expectation",
    "variance",
    "markov",
    "chain",
    "process",
    "processes",
    "martingale",
    "brownian",
    "motion",
    "measure",
    "theorem",
    "limit",
    "convergence",
    "gaussian",
    "poisson",
    "bernoulli",
    "sample",
    "estimator",
];

/// Sports (Yahoo-style OTHERS negative material, Section 3.1).
pub const SPORTS: &[&str] = &[
    "football",
    "soccer",
    "basketball",
    "baseball",
    "tennis",
    "golf",
    "hockey",
    "league",
    "team",
    "teams",
    "player",
    "players",
    "coach",
    "season",
    "game",
    "games",
    "match",
    "tournament",
    "championship",
    "score",
    "goal",
    "win",
    "loss",
    "stadium",
    "fans",
    "ticket",
    "tickets",
    "olympic",
    "athlete",
    "training",
    "fitness",
];

/// Entertainment (more OTHERS material).
pub const ENTERTAINMENT: &[&str] = &[
    "movie",
    "movies",
    "film",
    "films",
    "music",
    "album",
    "albums",
    "song",
    "songs",
    "concert",
    "tour",
    "band",
    "bands",
    "singer",
    "actor",
    "actress",
    "celebrity",
    "television",
    "show",
    "shows",
    "series",
    "episode",
    "theater",
    "festival",
    "ticket",
    "tickets",
    "star",
    "stars",
    "pop",
    "rock",
    "madonna",
    "hollywood",
];

/// Agriculture (a "semantically far away" class for OTHERS, Section 3.1).
pub const AGRICULTURE: &[&str] = &[
    "farm",
    "farming",
    "crop",
    "crops",
    "harvest",
    "soil",
    "irrigation",
    "fertilizer",
    "livestock",
    "cattle",
    "dairy",
    "wheat",
    "corn",
    "field",
    "fields",
    "tractor",
    "seed",
    "seeds",
    "organic",
    "pesticide",
    "yield",
    "agriculture",
    "agricultural",
    "farmer",
    "farmers",
    "rural",
    "greenhouse",
    "orchard",
    "vineyard",
];

/// Arts (another far-away class).
pub const ARTS: &[&str] = &[
    "painting",
    "paintings",
    "sculpture",
    "gallery",
    "museum",
    "exhibition",
    "artist",
    "artists",
    "canvas",
    "portrait",
    "landscape",
    "abstract",
    "modern",
    "classical",
    "drawing",
    "sketch",
    "watercolor",
    "curator",
    "collection",
    "masterpiece",
    "renaissance",
    "baroque",
    "impressionism",
    "aesthetic",
    "visual",
];

/// Look up a built-in lexicon by key.
pub fn by_key(key: &str) -> Option<&'static [&'static str]> {
    Some(match key {
        "common" => COMMON,
        "database_research" => DATABASE_RESEARCH,
        "data_mining" => DATA_MINING,
        "web_ir" => WEB_IR,
        "aries_recovery" => ARIES_RECOVERY,
        "open_source" => OPEN_SOURCE,
        "algebra" => ALGEBRA,
        "stochastics" => STOCHASTICS,
        "sports" => SPORTS,
        "entertainment" => ENTERTAINMENT,
        "agriculture" => AGRICULTURE,
        "arts" => ARTS,
        _ => return None,
    })
}

/// Filler syllables, zero-padded to four bytes.
const SYLLABLES: [&[u8; 4]; 24] = [
    b"ba\0\0", b"re\0\0", b"mo\0\0", b"ti\0\0", b"lan\0", b"dor\0", b"vek\0", b"sul\0", b"pra\0",
    b"nim\0", b"kel\0", b"tur\0", b"fos\0", b"gri\0", b"hem\0", b"jor\0", b"lin\0", b"mar\0",
    b"nox\0", b"pel\0", b"qui\0", b"ras\0", b"sten", b"val\0",
];

/// Deterministic pseudo-word for the long-tail filler vocabulary.
/// `index` selects the word; the space is effectively unbounded.
pub fn filler_word(index: u64) -> String {
    let (word, len) = filler_bytes(index);
    String::from_utf8(word.to_le_bytes()[..len].to_vec()).expect("syllables are ASCII")
}

/// [`filler_word`] as zero-padded little-endian bytes and a length (at most 12): three
/// syllables shifted into place, with no branch and no copy call.
pub(crate) fn filler_bytes(index: u64) -> (u128, usize) {
    let n = SYLLABLES.len() as u64;
    let (mut word, mut bits, mut x) = (0u128, 0, index);
    for _ in 0..3 {
        let syllable = u32::from_le_bytes(*SYLLABLES[(x % n) as usize]);
        word |= u128::from(syllable) << bits;
        bits += (39 - syllable.leading_zeros()) / 8 * 8;
        x /= n;
    }
    (word, bits as usize / 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicons_nonempty_and_lowercase() {
        for key in [
            "common",
            "database_research",
            "data_mining",
            "web_ir",
            "aries_recovery",
            "open_source",
            "algebra",
            "stochastics",
            "sports",
            "entertainment",
            "agriculture",
            "arts",
        ] {
            let lex = by_key(key).unwrap();
            assert!(lex.len() >= 20, "{key} too small");
            for w in lex {
                assert_eq!(*w, w.to_lowercase(), "{key}: {w} not lowercase");
                assert!(w.chars().all(|c| c.is_ascii_alphabetic()));
            }
        }
        assert!(by_key("nope").is_none());
    }

    #[test]
    fn filler_words_deterministic_and_distinct() {
        assert_eq!(filler_word(7), filler_word(7));
        let distinct: std::collections::HashSet<String> = (0..1000).map(filler_word).collect();
        assert!(distinct.len() > 900);
    }

    #[test]
    fn paper_example_terms_present() {
        // The Section 2.3 example stems must be derivable from the lexicon.
        for w in [
            "mining",
            "knowledge",
            "olap",
            "pattern",
            "cluster",
            "dataset",
        ] {
            assert!(
                DATA_MINING.contains(&w) || DATA_MINING.contains(&"patterns"),
                "{w} missing from data mining lexicon"
            );
        }
    }
}
