//! The grid handle every harness CLI attaches through: `--grid
//! loopback:N` owns an in-process loopback grid, `--grid
//! serve:HOST:PORT` is a client of a running daemon. Either way units
//! go in through [`Grid::runner`] and come back in submission order.

use crate::client::ServeClient;
use ppa_grid::loopback::{self, Loopback};
use ppa_grid::{GridConfig, GridMode, UnitKind, UnitRunner, Units};
use std::sync::Arc;

/// A live grid attachment for one harness process.
pub enum Grid {
    /// A coordinator plus in-process workers executing `units` locally.
    Loopback(Loopback),
    /// A `ppa-serve` daemon, whose workers execute the units.
    Remote(ServeClient),
}

impl Grid {
    /// Attaches to `mode`; `Ok(None)` for [`GridMode::Off`]. Loopback
    /// workers execute `units` (see [`loopback::harness_workers`] for
    /// their job count and `PPA_GRID_DIE_AFTER` fault injection); a
    /// daemon must answer a stats probe.
    pub fn attach(mode: GridMode, units: &'static [UnitKind]) -> Result<Option<Grid>, String> {
        match mode {
            GridMode::Off => Ok(None),
            GridMode::Loopback(n) => {
                let lb = loopback::start(
                    loopback::harness_workers(n),
                    Arc::new(Units(units)),
                    GridConfig::default(),
                )
                .map_err(|e| format!("failed to start loopback grid: {e}"))?;
                ppa_obs::info!(
                    "grid",
                    "loopback with {n} workers on {}",
                    lb.coordinator().local_addr()
                );
                Ok(Some(Grid::Loopback(lb)))
            }
            GridMode::Serve(addr) => {
                let client = ServeClient::connect(&addr)?;
                ppa_obs::info!("grid", "submitting to ppa-serve daemon at {addr}");
                Ok(Some(Grid::Remote(client)))
            }
        }
    }

    /// The runner work units are submitted through.
    pub fn runner(&self) -> &dyn UnitRunner {
        match self {
            Grid::Loopback(lb) => lb.coordinator().as_ref(),
            Grid::Remote(client) => client,
        }
    }

    /// Ends the run: logs the loopback coordinator's dispatch counters
    /// and shuts it down, or logs what the daemon (which outlives this
    /// process) served from its cache.
    pub fn finish(&self) {
        match self {
            Grid::Loopback(lb) => {
                let s = lb.coordinator().stats();
                ppa_obs::info!(
                    "grid",
                    "dispatched={} completed={} redispatched={} duplicates={} unit_errors={} workers_joined={} workers_lost={}",
                    s.dispatched, s.completed, s.redispatched, s.duplicates, s.unit_errors, s.workers_joined, s.workers_lost
                );
                lb.coordinator().shutdown();
            }
            Grid::Remote(client) => {
                if let Ok(s) = client.stats() {
                    ppa_obs::info!(
                        "grid",
                        "daemon {}: cache hits={} misses={} entries={}",
                        client.addr(),
                        s.hits,
                        s.misses,
                        s.entries
                    );
                }
            }
        }
    }
}
