//! Straight multi-lane highway geometry.

/// Identifier of a lane; lane 0 is the rightmost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LaneId(pub u8);

impl std::fmt::Display for LaneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lane{}", self.0)
    }
}

/// A single lane: a band of constant width parallel to the x-axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lane {
    /// Identifier.
    pub id: LaneId,
    /// Y coordinate of the lane center \[m\].
    pub center_y: f64,
    /// Lane width \[m\].
    pub width: f64,
}

impl Lane {
    /// Y coordinate of the left boundary.
    pub fn left_boundary(&self) -> f64 {
        self.center_y + self.width / 2.0
    }

    /// Y coordinate of the right boundary.
    pub fn right_boundary(&self) -> f64 {
        self.center_y - self.width / 2.0
    }

    /// True when `y` lies within the lane band.
    pub fn contains_y(&self, y: f64) -> bool {
        y >= self.right_boundary() && y <= self.left_boundary()
    }
}

/// A straight highway segment with `n` parallel lanes along +x.
///
/// Lane 0 is centered at `y = 0`; lane `i` at `y = i * lane_width`.
#[derive(Debug, Clone, PartialEq)]
pub struct Road {
    lanes: Vec<Lane>,
    /// Drivable length \[m\].
    pub length: f64,
}

impl Road {
    /// Standard US lane width \[m\].
    pub const DEFAULT_LANE_WIDTH: f64 = 3.7;

    /// Creates a highway with `lane_count` lanes of `lane_width` meters.
    ///
    /// # Panics
    ///
    /// Panics if `lane_count` is zero or dimensions are non-positive.
    pub fn highway(lane_count: u8, lane_width: f64, length: f64) -> Self {
        assert!(lane_count > 0, "a road needs at least one lane");
        assert!(lane_width > 0.0 && length > 0.0, "road dimensions must be positive");
        let lanes = (0..lane_count)
            .map(|i| Lane { id: LaneId(i), center_y: f64::from(i) * lane_width, width: lane_width })
            .collect();
        Road { lanes, length }
    }

    /// A three-lane highway long enough for every scenario in the suite.
    pub fn default_highway() -> Self {
        Road::highway(3, Road::DEFAULT_LANE_WIDTH, 4000.0)
    }

    /// All lanes, rightmost first.
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// The lane with the given id, if any.
    pub fn lane(&self, id: LaneId) -> Option<&Lane> {
        self.lanes.get(usize::from(id.0))
    }

    /// The lane whose band contains `y` (boundaries tie toward the lower
    /// lane), or the nearest lane when off-road.
    pub fn lane_at(&self, y: f64) -> &Lane {
        self.lanes.iter().find(|l| l.contains_y(y)).unwrap_or_else(|| {
            self.lanes
                .iter()
                .min_by(|a, b| {
                    (a.center_y - y)
                        .abs()
                        .partial_cmp(&(b.center_y - y).abs())
                        .expect("lane centers are finite")
                })
                .expect("road has at least one lane")
        })
    }

    /// Y of the right edge of the drivable surface.
    pub fn right_edge(&self) -> f64 {
        self.lanes.first().expect("non-empty").right_boundary()
    }

    /// Y of the left edge of the drivable surface.
    pub fn left_edge(&self) -> f64 {
        self.lanes.last().expect("non-empty").left_boundary()
    }

    /// True when `y` is on the drivable surface.
    pub fn on_road(&self, y: f64) -> bool {
        y >= self.right_edge() && y <= self.left_edge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highway_lane_layout() {
        let r = Road::highway(3, 3.7, 1000.0);
        assert_eq!(r.lanes().len(), 3);
        assert_eq!(r.lane(LaneId(1)).unwrap().center_y, 3.7);
        assert_eq!(r.right_edge(), -1.85);
        assert_eq!(r.left_edge(), 2.0 * 3.7 + 1.85);
    }

    #[test]
    fn lane_at_picks_containing_band() {
        let r = Road::highway(3, 3.7, 1000.0);
        assert_eq!(r.lane_at(0.0).id, LaneId(0));
        assert_eq!(r.lane_at(3.7).id, LaneId(1));
        assert_eq!(r.lane_at(6.0).id, LaneId(2));
    }

    #[test]
    fn lane_at_clamps_off_road() {
        let r = Road::highway(2, 3.7, 1000.0);
        assert_eq!(r.lane_at(-50.0).id, LaneId(0));
        assert_eq!(r.lane_at(50.0).id, LaneId(1));
    }

    #[test]
    fn boundaries_are_consistent() {
        let r = Road::default_highway();
        for lane in r.lanes() {
            assert!((lane.left_boundary() - lane.right_boundary() - lane.width).abs() < 1e-12);
            assert!(lane.contains_y(lane.center_y));
        }
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_road_panics() {
        let _ = Road::highway(0, 3.7, 100.0);
    }
}
