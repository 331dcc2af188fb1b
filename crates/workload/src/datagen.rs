//! Synthetic data with the correlations the paper's evaluation relies on.
//!
//! Built-in structure:
//!
//! * **Model → Make** functional dependency (every "Camry" is a "Toyota"),
//!   so `make = X AND model = Y` is exactly the correlated predicate pair
//!   the paper's running example uses;
//! * **City → Country** functional dependency on DEMOGRAPHICS;
//! * Zipf-like skew over makes and cities (popular values dominate);
//! * price correlated with make tier and model year;
//! * salary correlated with age;
//! * accident damage correlated with the car's age (older cars → worse
//!   damage), a *cross-table* correlation reached through the FK.

use crate::schema::paper_row_counts;
use jits_common::{Result, SplitMix64, Value};
use jits_engine::Database;

/// Car makes with their models and a price-tier multiplier.
pub const MAKE_MODELS: &[(&str, &[&str], f64)] = &[
    ("Toyota", &["Camry", "Corolla", "Rav4"], 1.0),
    ("Honda", &["Civic", "Accord"], 1.0),
    ("Ford", &["Focus", "Mustang", "Fiesta"], 0.9),
    ("Volkswagen", &["Golf", "Passat"], 1.1),
    ("Nissan", &["Altima", "Sentra"], 0.9),
    ("Hyundai", &["Elantra", "Tucson"], 0.8),
    ("Audi", &["A4", "Q5"], 1.8),
    ("BMW", &["M3", "X5"], 2.0),
    ("Mercedes", &["C300", "E350"], 2.1),
    ("Porsche", &["Cayenne", "Boxster"], 3.0),
];

/// Cities with their (functionally determined) countries.
pub const CITY_COUNTRY: &[(&str, &str)] = &[
    ("Ottawa", "CA"),
    ("Toronto", "CA"),
    ("Montreal", "CA"),
    ("Vancouver", "CA"),
    ("NewYork", "US"),
    ("Boston", "US"),
    ("Chicago", "US"),
    ("Seattle", "US"),
    ("Austin", "US"),
    ("Denver", "US"),
    ("London", "UK"),
    ("Leeds", "UK"),
    ("Bristol", "UK"),
    ("Munich", "DE"),
    ("Berlin", "DE"),
];

/// Marital statuses.
pub const MARITAL: &[&str] = &["single", "married", "divorced", "widowed"];

/// Model-year range of the fleet.
pub const YEAR_RANGE: (i64, i64) = (1990, 2006);

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DataGenConfig {
    /// Fraction of the paper's Table 2 row counts (1.0 = full size).
    pub scale: f64,
    /// RNG seed; equal seeds give identical databases.
    pub seed: u64,
}

impl Default for DataGenConfig {
    fn default() -> Self {
        DataGenConfig {
            scale: 0.02,
            seed: 0x2007_1CDE,
        }
    }
}

impl DataGenConfig {
    /// Scaled row counts per table, in [`crate::schema::TABLE_NAMES`] order.
    pub fn row_counts(&self) -> [usize; 4] {
        let paper = paper_row_counts();
        let mut out = [0usize; 4];
        for (i, (_, n)) in paper.iter().enumerate() {
            out[i] = ((*n as f64) * self.scale).round().max(1.0) as usize;
        }
        out
    }
}

/// Zipf-like sampler over `n` ranks (weight of rank r is `1 / (r + 1)`).
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks.
    pub fn new(n: usize) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r as f64 + 1.0);
            cumulative.push(acc);
        }
        ZipfSampler { cumulative }
    }

    /// Draws a rank in `[0, n)` (0 when `n` is 0).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let Some(&total) = self.cumulative.last() else {
            return 0;
        };
        let x = rng.next_f64() * total;
        self.cumulative
            .partition_point(|c| *c < x)
            .min(self.cumulative.len() - 1)
    }
}

/// Populates all four tables at the configured scale. Returns the row
/// counts loaded. UDI counters are reset afterwards (bulk load is not
/// "activity").
pub fn populate(db: &mut Database, cfg: &DataGenConfig) -> Result<[usize; 4]> {
    let counts = cfg.row_counts();
    let [n_car, n_owner, n_demo, n_acc] = counts;
    let mut rng = SplitMix64::new(cfg.seed);

    // ---- owners ---------------------------------------------------------
    let mut owner_rows = Vec::with_capacity(n_owner);
    for i in 0..n_owner {
        let age = 18 + (rng.next_f64() * rng.next_f64() * 62.0) as i64; // skewed young
                                                                        // salary correlated with age (peaks mid-career) + noise
        let peak = 1.0 - ((age - 48).abs() as f64 / 30.0).min(1.0);
        let salary = (18_000.0 + 90_000.0 * peak * (0.6 + 0.8 * rng.next_f64())) as i64;
        owner_rows.push(vec![
            Value::Int(i as i64),
            Value::str(format!("owner{i}")),
            Value::Int(age),
            Value::Int(salary),
        ]);
    }
    db.load_rows("owner", owner_rows)?;

    // ---- cars -----------------------------------------------------------
    let make_zipf = ZipfSampler::new(MAKE_MODELS.len());
    let mut car_year = Vec::with_capacity(n_car);
    let mut car_rows = Vec::with_capacity(n_car);
    for i in 0..n_car {
        let mk = make_zipf.sample(&mut rng);
        let (make, models, tier) = MAKE_MODELS[mk];
        // first model of each make is the most popular
        let model_rank = (rng.next_f64() * rng.next_f64() * models.len() as f64) as usize;
        let model = models[model_rank.min(models.len() - 1)];
        // expensive makes skew newer
        let span = (YEAR_RANGE.1 - YEAR_RANGE.0) as f64;
        let newness = (rng.next_f64().powf(1.0 / tier)).min(1.0);
        let year = YEAR_RANGE.0 + (newness * span) as i64;
        let age = (YEAR_RANGE.1 - year) as f64;
        let price = 8_000.0 * tier * (1.0 - 0.045 * age).max(0.2) * (0.8 + 0.4 * rng.next_f64());
        car_year.push(year);
        car_rows.push(vec![
            Value::Int(i as i64),
            Value::Int(rng.next_bounded(n_owner as u64) as i64),
            Value::str(make),
            Value::str(model),
            Value::Int(year),
            Value::Float(price.round()),
        ]);
        if car_rows.len() == 50_000 {
            db.load_rows("car", std::mem::take(&mut car_rows))?;
        }
    }
    db.load_rows("car", car_rows)?;

    // ---- demographics (one row per owner id, cyclically) -----------------
    let city_zipf = ZipfSampler::new(CITY_COUNTRY.len());
    let mut demo_rows = Vec::with_capacity(n_demo);
    for i in 0..n_demo {
        let (city, country) = CITY_COUNTRY[city_zipf.sample(&mut rng)];
        let marital = MARITAL[rng.next_index(MARITAL.len())];
        demo_rows.push(vec![
            Value::Int((i % n_owner) as i64),
            Value::str(city),
            Value::str(country),
            Value::str(marital),
        ]);
    }
    db.load_rows("demographics", demo_rows)?;

    // ---- accidents --------------------------------------------------------
    let mut acc_rows = Vec::with_capacity(n_acc);
    for i in 0..n_acc {
        let carid = rng.next_bounded(n_car as u64) as usize;
        let car_age = (YEAR_RANGE.1 - car_year[carid]) as f64;
        // damage correlated with the car's age
        let damage = (500.0 + 2_500.0 * car_age * (0.3 + rng.next_f64())) as i64;
        let year = 2000 + rng.next_bounded(7) as i64;
        acc_rows.push(vec![
            Value::Int(i as i64),
            Value::Int(carid as i64),
            Value::str(format!("driver{}", rng.next_bounded(997))),
            Value::Int(damage),
            Value::Int(year),
        ]);
        if acc_rows.len() == 50_000 {
            db.load_rows("accidents", std::mem::take(&mut acc_rows))?;
        }
    }
    db.load_rows("accidents", acc_rows)?;

    // bulk load is the database's initial state, not churn
    for name in crate::schema::TABLE_NAMES {
        let tid = db.catalog().require(name)?;
        db.reset_udi(tid);
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::create_schema;
    use jits_common::ColumnId;

    fn small_db() -> (Database, [usize; 4]) {
        let mut db = Database::new(7);
        create_schema(&mut db).unwrap();
        let cfg = DataGenConfig {
            scale: 0.002,
            seed: 99,
        };
        let counts = populate(&mut db, &cfg).unwrap();
        (db, counts)
    }

    #[test]
    fn row_counts_scale() {
        let (db, counts) = small_db();
        assert_eq!(counts[0], 2_862); // 1,430,798 * 0.002
        for (i, name) in crate::schema::TABLE_NAMES.iter().enumerate() {
            let tid = db.table_id(name).unwrap();
            assert_eq!(db.table(tid).unwrap().row_count(), counts[i]);
        }
    }

    #[test]
    fn model_determines_make() {
        let (db, _) = small_db();
        let tid = db.table_id("car").unwrap();
        let t = db.table(tid).unwrap();
        let mut seen: std::collections::BTreeMap<String, String> =
            std::collections::BTreeMap::new();
        for r in t.scan() {
            let make = t.value(r, ColumnId(2)).as_str().unwrap().to_string();
            let model = t.value(r, ColumnId(3)).as_str().unwrap().to_string();
            if let Some(prev) = seen.insert(model.clone(), make.clone()) {
                assert_eq!(prev, make, "model {model} maps to two makes");
            }
        }
        assert!(seen.len() >= 10, "many models generated");
    }

    #[test]
    fn city_determines_country() {
        let (db, _) = small_db();
        let tid = db.table_id("demographics").unwrap();
        let t = db.table(tid).unwrap();
        for r in t.scan().take(500) {
            let city = t.value(r, ColumnId(1)).as_str().unwrap().to_string();
            let country = t.value(r, ColumnId(2)).as_str().unwrap().to_string();
            let expected = CITY_COUNTRY
                .iter()
                .find(|(c, _)| *c == city)
                .map(|(_, k)| *k)
                .unwrap();
            assert_eq!(country, expected);
        }
    }

    #[test]
    fn make_distribution_is_skewed() {
        let (db, counts) = small_db();
        let tid = db.table_id("car").unwrap();
        let t = db.table(tid).unwrap();
        let toyota = t
            .scan()
            .filter(|&r| t.value(r, ColumnId(2)) == Value::str("Toyota"))
            .count();
        let porsche = t
            .scan()
            .filter(|&r| t.value(r, ColumnId(2)) == Value::str("Porsche"))
            .count();
        assert!(
            toyota > porsche * 4,
            "Zipf skew expected: toyota {toyota} vs porsche {porsche} of {}",
            counts[0]
        );
    }

    #[test]
    fn damage_correlates_with_car_age() {
        let (db, _) = small_db();
        let cars = db.table(db.table_id("car").unwrap()).unwrap();
        let accs = db.table(db.table_id("accidents").unwrap()).unwrap();
        let mut old_sum = 0.0;
        let mut old_n = 0.0;
        let mut new_sum = 0.0;
        let mut new_n = 0.0;
        for r in accs.scan() {
            let carid = accs.value(r, ColumnId(1)).as_i64().unwrap() as u32;
            let year = cars.value(carid, ColumnId(4)).as_i64().unwrap();
            let damage = accs.value(r, ColumnId(3)).as_i64().unwrap() as f64;
            if year < 1995 {
                old_sum += damage;
                old_n += 1.0;
            } else if year > 2003 {
                new_sum += damage;
                new_n += 1.0;
            }
        }
        assert!(old_sum / old_n > 2.0 * (new_sum / new_n));
    }

    #[test]
    fn generation_is_deterministic() {
        let (db1, _) = small_db();
        let (db2, _) = small_db();
        let t1 = db1.table(db1.table_id("car").unwrap()).unwrap();
        let t2 = db2.table(db2.table_id("car").unwrap()).unwrap();
        for r in t1.scan().take(100) {
            assert_eq!(t1.row(r), t2.row(r));
        }
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let z = ZipfSampler::new(10);
        let mut rng = SplitMix64::new(5);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] * 5);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
