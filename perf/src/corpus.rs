//! The generated inputs every workload shares: the scaled life-science
//! corpus (three sources with heterogeneous schemas and corrupted
//! names, so ingest measures curation and not append) plus the
//! `dose` / `batch` / `tag` attributes that give range, ordered and
//! hash access paths something to index. Everything derives from the
//! seed; the program under test only ever sees what is generated here.

use scdb_datagen::corrupt::CorruptionConfig;
use scdb_datagen::life_science::{scaled, ScaledConfig};
use scdb_types::{SymbolTable, Value};

/// Distinct drugs at full scale (≈ 2 rows per drug across the three
/// sources). The issue's 10 000 is cut by 8: the acceptance driver
/// makes 158 runs inside 3420 s, and this engine ingests ≈ 2.5k rows/s.
pub const FULL_DRUGS: usize = 1_250;
/// `--smoke` divides the corpus by this.
pub const SMOKE_DIVISOR: usize = 20;
/// Rows that share one `tag` value.
pub const ROWS_PER_TAG: usize = 10;
/// Rows per `Db::ingest_batch` call.
pub const BATCH: usize = 64;

/// splitmix64: the benchmark's own seeded stream (the generator crate
/// consumes the seed separately).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One generated row, symbol-free so it can be rebuilt against any
/// `Db`'s symbol table.
pub struct Row {
    pub attrs: Vec<(String, Value)>,
    pub text: String,
    /// Generator ground truth: the entity this row denotes.
    pub truth: String,
}

impl Row {
    pub fn get(&self, attr: &str) -> &Value {
        self.attrs
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, v)| v)
            .expect("generated rows carry every attribute of their source")
    }
}

pub struct Source {
    /// `src0..src2`: the generator's names carry `-`, which the ScQL
    /// lexer rejects in a source name.
    pub name: String,
    /// The identity attribute, with the generator's spaces and
    /// brackets replaced (`Drug Name` → `Drug_Name`): the lexer rejects
    /// those in an attribute name too.
    pub name_attr: String,
    pub rows: Vec<Row>,
}

pub struct Corpus {
    pub sources: Vec<Source>,
    pub rows: usize,
    /// Bytes of attribute values and text handed to ingest.
    pub user_bytes: u64,
}

fn lexer_safe(attr: &str) -> String {
    let mut out = String::new();
    for ch in attr.chars() {
        if ch.is_alphanumeric() {
            out.push(ch);
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

pub fn corpus(seed: u64, smoke: bool) -> Corpus {
    let n_drugs = if smoke {
        FULL_DRUGS / SMOKE_DIVISOR
    } else {
        FULL_DRUGS
    };
    let config = ScaledConfig {
        n_drugs,
        n_genes: n_drugs / 3,
        n_diseases: n_drugs / 5,
        n_sources: 3,
        duplicate_rate: 0.5,
        corruption: CorruptionConfig::moderate(),
        seed,
    };
    let mut symbols = SymbolTable::new();
    let generated = scaled(&config, &mut symbols);
    let mut rng = Rng::new(seed ^ 0xD05E);
    let mut ordinal = 0i64;
    let mut user_bytes = 0u64;
    let mut sources = Vec::new();
    for (k, source) in generated.into_iter().enumerate() {
        let mut name_attr = String::new();
        let mut rows = Vec::with_capacity(source.records.len());
        for (i, r) in source.records.into_iter().enumerate() {
            let mut attrs: Vec<(String, Value)> = r
                .record
                .iter()
                .map(|(sym, v)| (lexer_safe(symbols.resolve(sym)), v.clone()))
                .collect();
            if name_attr.is_empty() {
                name_attr = attrs[0].0.clone();
            }
            // Uniform in [0, 10) on a 1e-4 grid.
            attrs.push(("dose".into(), Value::Float(rng.below(100_000) as f64 / 1e4)));
            attrs.push(("batch".into(), Value::Int(ordinal)));
            // Tags are per source, and each tag's first four characters
            // are its own, so the resolver's prefix blocking sees one
            // small block per tag and not one corpus-wide block.
            attrs.push((
                "tag".into(),
                Value::str(format!("{:04x}s{k}", i / ROWS_PER_TAG)),
            ));
            ordinal += 1;
            let text = r.text.unwrap_or_default();
            user_bytes += attrs
                .iter()
                .map(|(_, v)| v.render().len() as u64)
                .sum::<u64>()
                + text.len() as u64;
            rows.push(Row {
                attrs,
                text,
                truth: r.truth.unwrap_or_default(),
            });
        }
        sources.push(Source {
            name: format!("src{k}"),
            name_attr,
            rows,
        });
    }
    Corpus {
        rows: ordinal as usize,
        user_bytes,
        sources,
    }
}

/// Which rows of each source a load takes. `mixed.rw` preloads the
/// first half and writes the second; the split falls on a tag boundary
/// so the reader's tags never gain rows while it runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Part {
    All,
    FirstHalf,
    SecondHalf,
}

impl Part {
    pub fn range(self, len: usize) -> std::ops::Range<usize> {
        let half = len / 2 / ROWS_PER_TAG * ROWS_PER_TAG;
        match self {
            Part::All => 0..len,
            Part::FirstHalf => 0..half,
            Part::SecondHalf => half..len,
        }
    }
}
