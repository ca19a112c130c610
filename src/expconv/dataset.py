"""Plant-run ingestion, normalization, windowing, synthetic tasks.

Runs are whitespace-delimited numeric text files named d{NN}.dat (train)
and d{NN}_te.dat (test), NN being the fault id with 00 for normal
operation. Each run measures 52 process variables; faulty training runs
hold 480 samples and test runs 960, with the fault appearing at sample
160 of a test run. Windows cut from a test run are labeled by where they
sit relative to that onset; windows that contain the onset are dropped.
A windowed dataset holds each row once: the runs' rows as one series,
and each window as its start in it.

The synthetic task generator builds two-class window datasets whose
classes differ in a power-law energy feature with a known exponent, so a
trained exponent can be checked against the value that generated the
data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import islice, repeat

import numpy as np

from .numerics import DEFAULT_EPS, make_rng, signed_pow

N_VARIABLES = 52
FAULTY_TRAIN_ROWS = 480
TEST_ROWS = 960
FAULT_ONSET = 160  # 0-based sample index of the first faulty sample
MAX_FAULT_ID = 21

DEFAULT_WIN_LEN = 40
DEFAULT_STRIDE = 10

SPLITS = ("train", "test")


@dataclass
class RawRun:
    matrix: np.ndarray  # (samples, N_VARIABLES)
    fault_id: int
    split: str

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != N_VARIABLES:
            raise ValueError(
                f"run matrix must be (samples, {N_VARIABLES}), "
                f"got {self.matrix.shape}")
        if not 0 <= self.fault_id <= MAX_FAULT_ID:
            raise ValueError(f"fault_id must be in [0, {MAX_FAULT_ID}]")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}")

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class NormStats:
    """Per-column mean and population std, fit on training data only."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be matching 1-D vectors")
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive")


class WindowedDataset:
    """Windows of ``win_len`` rows cut every ``stride`` rows, with one int
    label each.

    A dataset holds each row once: ``series`` (R, channels) holds the
    rows, and window i is ``series[starts[i]:starts[i] + win_len]``.
    Plant ingest (``make_windows``, ``merge_windows``) keeps the runs'
    rows as the series and never copies a window, and so does a version-2
    CSV cache (``load_windows_csv``). Built from a window array (n,
    win_len, channels), a dataset keeps that array as its series, the
    windows back to back (starts ``arange(n) * win_len``). The starts are
    the one record of which windows continue each other: evaluation joins
    windows whose starts lie ``stride`` rows apart. ``windows`` gathers
    the window array for callers that need it; training and evaluation
    read the series. A ``stride`` below 1 is a ValueError.
    """

    def __init__(self, windows, labels, win_len: int, stride: int):
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3:
            raise ValueError("windows must be (n, win_len, channels)")
        if windows.shape[0] and windows.shape[1] != win_len:
            raise ValueError("window length mismatch")
        _check_stride(stride)
        n, rows, channels = windows.shape
        self._hold(windows.reshape(n * rows, channels),
                   np.arange(n) * win_len, labels, win_len, stride)

    @classmethod
    def from_series(cls, series, starts, labels, win_len: int,
                    stride: int) -> "WindowedDataset":
        """The windows ``series[s:s + win_len]`` for s in ``starts``,
        holding ``series`` as it is."""
        _check_stride(stride)
        dataset = cls.__new__(cls)
        dataset._hold(series, starts, labels, win_len, stride)
        return dataset

    def _hold(self, series, starts, labels, win_len: int,
              stride: int) -> None:
        self.series = np.asarray(series, dtype=np.float64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.win_len = win_len
        self.stride = stride
        if self.series.ndim != 2 or self.starts.ndim != 1:
            raise ValueError("need a (rows, channels) series and 1-D starts")
        if self.labels.shape != self.starts.shape:
            raise ValueError("labels must align with windows")
        if len(self.starts) and not (
                0 <= self.starts.min()
                and self.starts.max() + win_len <= len(self.series)):
            raise ValueError("a window lies outside the series")

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i):
        start = int(self.starts[i])
        return (self.series[start:start + self.win_len],
                int(self.labels[i]))

    @property
    def channels(self) -> int:
        return self.series.shape[1]

    @property
    def windows(self) -> np.ndarray:
        """The windows (n, win_len, channels), read from the series on
        each read: a view when they lie back to back, else a gathered copy
        (``window_rows``). Read it once."""
        return window_rows(self.series, self.starts, self.win_len)


def _check_stride(stride: int) -> None:
    if not stride >= 1:
        raise ValueError(f"stride must be >= 1, got {stride}")


def window_rows(series: np.ndarray, starts, win_len: int) -> np.ndarray:
    """The windows ``series[s:s + win_len]`` for s in ``starts``, as one
    (n, win_len, channels) array: a reshape view of the series when they
    lie back to back, else a gathered copy."""
    starts = np.asarray(starts)
    if len(starts) and (np.diff(starts) == win_len).all():
        first = int(starts[0])
        return series[first:first + len(starts) * win_len].reshape(
            len(starts), win_len, series.shape[1])
    return series[starts[:, None] + np.arange(win_len)]


@dataclass
class SyntheticTask:
    """Two-class windows separable by a signed power-energy feature.

    The generating exponent, threshold and margin are recorded so the
    labeling rule can be re-evaluated on the emitted windows.
    """

    windows: np.ndarray  # (count, win_len, channels)
    labels: np.ndarray  # (count,)
    exponent: float
    noise: float
    seed: int
    threshold: float
    margin: float
    win_len: int = field(init=False)
    channels: int = field(init=False)

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        _, self.win_len, self.channels = (int(d) for d in self.windows.shape)

    def __len__(self) -> int:
        return self.windows.shape[0]

    def as_windowed(self) -> WindowedDataset:
        return WindowedDataset(self.windows, self.labels,
                               win_len=self.win_len, stride=self.win_len)


# --------------------------------------------------------------------------
# File ingestion

def run_filename(fault_id: int, split: str) -> str:
    if split == "train":
        return f"d{fault_id:02d}.dat"
    return f"d{fault_id:02d}_te.dat"


def load_run(path, fault_id: int, split: str) -> RawRun:
    """Parse a whitespace-delimited run file and validate its shape.

    Files stored variables-by-samples (52 x N) are transposed. Faulty
    training runs must have 480 rows and test runs 960; a normal-condition
    training run may have any length. An empty file, or a NaN or
    infinite entry, is a ValueError; the entry's row and column are
    counted from 1 as the file stores them.
    """
    try:
        with warnings.catch_warnings():  # an empty file is rejected below
            warnings.simplefilter("ignore", UserWarning)
            matrix = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"could not parse {path}: {exc}") from exc
    if not matrix.size:
        raise ValueError(f"{path}: file holds no data")
    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise ValueError(f"{path}: non-finite value {matrix[row, col]} at "
                         f"row {row + 1}, column {col + 1}")
    if matrix.shape[1] != N_VARIABLES:
        if matrix.shape[0] == N_VARIABLES and matrix.shape[1] > N_VARIABLES:
            matrix = matrix.T
        else:
            raise ValueError(
                f"{path}: neither dimension fits {N_VARIABLES} variables "
                f"(shape {matrix.shape})")
    rows = matrix.shape[0]
    if split == "test" and rows != TEST_ROWS:
        raise ValueError(
            f"{path}: test run must have {TEST_ROWS} rows, got {rows}")
    if split == "train" and fault_id > 0 and rows != FAULTY_TRAIN_ROWS:
        raise ValueError(
            f"{path}: faulty training run must have {FAULTY_TRAIN_ROWS} "
            f"rows, got {rows}")
    return RawRun(matrix, fault_id=fault_id, split=split)


def save_run_text(run: RawRun, path) -> None:
    """Write the matrix in the whitespace-delimited text format.

    17 significant digits, so reloading reproduces the float64 values
    bit for bit.
    """
    np.savetxt(path, run.matrix, fmt="%.17g")


# --------------------------------------------------------------------------
# Normalization

@np.errstate(over="ignore", invalid="ignore")  # overflow raises below
def fit_normalize(runs) -> NormStats:
    """Column mean/std over the concatenated training runs (population std).

    A column whose mean or std is not finite (values near the float64
    limit overflow the variance) or whose std is zero is a ValueError
    naming the columns.
    """
    mats = [r.matrix for r in runs]
    if not mats:
        raise ValueError("need at least one training run")
    stacked = np.concatenate(mats, axis=0)
    if stacked.shape[0] < 2:
        raise ValueError("need at least 2 training rows to fit normalization")
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)  # ddof=0
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise ValueError(f"non-finite mean or std in columns: {bad.tolist()}")
    bad = np.flatnonzero(std <= 0)
    if bad.size:
        raise ValueError(f"zero-variance columns: {bad.tolist()}")
    return NormStats(mean, std)


def apply_normalize(run: RawRun, stats: NormStats) -> RawRun:
    """The run standardized by ``stats`` (``normalize_into``)."""
    matrix = normalize_into(run, stats, np.empty(run.matrix.shape))
    return RawRun(matrix, fault_id=run.fault_id, split=run.split)


@np.errstate(over="ignore", invalid="ignore")  # overflow raises below
def normalize_into(run: RawRun, stats: NormStats,
                   out: np.ndarray) -> np.ndarray:
    """Write the run standardized by ``stats`` into ``out``, an array of
    the run's shape that is not its matrix, and return ``out``. A value
    that is not finite once normalized is a ValueError naming the run and
    the value's row and column (from 1)."""
    if stats.mean.shape[0] != run.matrix.shape[1]:
        raise ValueError("normalization stats do not match run width")
    np.divide(np.subtract(run.matrix, stats.mean, out=out), stats.std, out=out)
    if not np.isfinite(out).all():
        row, col = np.argwhere(~np.isfinite(out))[0]
        raise ValueError(
            f"{run.split} run of fault {run.fault_id}: value "
            f"{run.matrix[row, col]} at row {row + 1}, column {col + 1} "
            "is not finite once normalized")
    return out


# --------------------------------------------------------------------------
# Windowing

def make_windows(run: RawRun, win_len: int = DEFAULT_WIN_LEN,
                 stride: int = DEFAULT_STRIDE) -> WindowedDataset:
    """Slide a win_len window over the run and label each position.

    Training windows inherit the run's fault id. Test windows are labeled
    normal when they end before the fault onset, with the fault id when
    they start at or after it, and are dropped when they contain the
    onset itself. The dataset's series is the run's matrix itself and
    its starts are the kept positions, so no window is copied.
    """
    if win_len < 1 or stride < 1:
        raise ValueError("win_len and stride must be >= 1")
    if win_len > run.rows:
        raise ValueError(
            f"win_len {win_len} exceeds run length {run.rows}")
    starts = np.arange(0, run.rows - win_len + 1, stride)
    if run.split == "test":
        starts = starts[(starts + win_len <= FAULT_ONSET)
                        | (starts >= FAULT_ONSET)]
        labels = np.where(starts >= FAULT_ONSET, run.fault_id, 0)
    else:
        labels = np.full(starts.shape, run.fault_id)
    return WindowedDataset.from_series(run.matrix, starts, labels,
                                       win_len=win_len, stride=stride)


def merge_windows(datasets) -> WindowedDataset:
    """One dataset of the parts' windows in order, over one series that
    joins the parts' series. Parts whose window length, stride or channel
    count differ are a ValueError naming both values."""
    datasets = list(datasets)
    if not datasets:
        raise ValueError("nothing to merge")
    first = datasets[0]
    for d in datasets[1:]:
        for what, a, b in (("window lengths", first.win_len, d.win_len),
                           ("strides", first.stride, d.stride),
                           ("channel counts", first.channels, d.channels)):
            if a != b:
                raise ValueError(f"{what} differ: {a} and {b}")
    offsets = np.cumsum([0] + [len(d.series) for d in datasets[:-1]])
    return WindowedDataset.from_series(
        np.concatenate([d.series for d in datasets]),
        np.concatenate([d.starts + off for d, off in zip(datasets, offsets)]),
        np.concatenate([d.labels for d in datasets]),
        win_len=first.win_len, stride=first.stride)


# --------------------------------------------------------------------------
# Synthetic task generation

ENERGY_REJECT_BUDGET = 1000  # draw attempts allowed per emitted window
PILOT_DRAWS = 256  # candidates whose features set the threshold and margin
BLOCK_VALUES = 65536  # uniforms drawn per block of candidates (0.5 MB)


def energy_feature(window, exponent: float) -> float:
    """Sum of signed powers over every entry of the window."""
    return float(np.sum(signed_pow(window, exponent)))


def _candidate_block(rng: np.random.Generator, size: int, win_len: int,
                     channels: int, exponent: float, low: float,
                     high: float) -> tuple[np.ndarray, np.ndarray]:
    """``size`` candidate windows and their energy features.

    Candidate j takes the 2 * win_len * channels uniforms after those of
    candidate j - 1: its log-uniform magnitudes, then its signs, negative
    where the uniform is below 0.5. Each feature equals
    ``energy_feature`` of its window bit for bit.
    """
    u = rng.random((size, 2, win_len, channels))
    mags = np.exp(low + (high - low) * u[:, 0])  # Generator.uniform's formula
    side = u[:, 1] - 0.5
    powers = np.copysign(np.maximum(mags, DEFAULT_EPS) ** exponent, side)
    return (np.copysign(mags, side, out=mags),
            powers.reshape(size, -1).sum(axis=1))


@np.errstate(over="ignore", invalid="ignore")  # overflow raises below
def gen_synthetic(win_len: int = 8, channels: int = 4, exponent: float = 2.0,
                  noise: float = 0.05, count: int = 200, seed: int = 0,
                  margin_scale: float = 0.25, mag_lo: float = 0.2,
                  mag_hi: float = 3.0) -> SyntheticTask:
    """Emit a balanced two-class dataset split by a power-energy feature.

    Windows have log-uniform magnitudes and random signs. A pilot sample
    of 256 candidates sets the class threshold (median feature) and
    margin; each emitted window is the next candidate whose feature
    clears the margin on the side its class requires, after at most
    ENERGY_REJECT_BUDGET candidates. Noise is added after labeling, so
    with noise=0 the labeling rule holds exactly on the emitted windows.
    A pilot feature or noisy window that overflows raises
    FloatingPointError instead of a NumPy warning; a non-finite
    parameter raises ValueError naming it.

    Candidates are drawn and scored in blocks of about BLOCK_VALUES
    uniforms, one ``rng.random`` call and one feature pass a block. The
    pilot and the accept/reject scan read one stream of candidates in
    draw order, each with its block's start state and its index in the
    block. The windows, labels, threshold and margin are those of drawing
    one candidate at a time, byte for byte: after the scan the generator
    is rewound to the last candidate read (its block's start state,
    advanced past it and the candidates before it in the block), so the
    candidates drawn beyond it do not move the noise draw (PCG64 takes
    one 64-bit output per double).
    """
    for name, value in (("exponent", exponent), ("noise", noise),
                        ("margin_scale", margin_scale), ("mag_lo", mag_lo),
                        ("mag_hi", mag_hi)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if win_len < 1 or channels < 1:
        raise ValueError("win_len and channels must be >= 1")
    if not count >= 0:
        raise ValueError("count must be >= 0")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    if not 0 < mag_lo < mag_hi:
        raise ValueError("need 0 < mag_lo < mag_hi")
    rng = make_rng(seed)
    per_draw = 2 * win_len * channels
    size = max(1, BLOCK_VALUES // per_draw)
    low, high = np.log(mag_lo), np.log(mag_hi)

    def stream():  # (window, feature, block start state, index in block)
        while True:
            state = rng.bit_generator.state
            cands, feats = _candidate_block(rng, size, win_len, channels,
                                            exponent, low, high)
            yield from zip(cands, feats.tolist(), repeat(state), range(size))

    candidates = stream()
    pilot = np.empty(PILOT_DRAWS)
    for i in range(PILOT_DRAWS):
        _, pilot[i], state, j = next(candidates)
    if not np.isfinite(pilot).all():
        raise FloatingPointError(
            f"energy feature overflows for exponent={exponent}, "
            f"mag_lo={mag_lo}, mag_hi={mag_hi}")
    threshold = float(np.median(pilot))
    margin = float(margin_scale * pilot.std())
    if margin <= 0:
        raise ValueError("degenerate feature distribution (zero spread)")

    below, above = threshold - margin, threshold + margin
    windows = np.empty((count, win_len, channels))
    done = tries = 0
    while done < count:
        cand, f, state, j = next(candidates)
        tries += 1
        if (f >= above) if done % 2 else (f <= below):
            windows[done] = cand
            done += 1
            tries = 0
        elif tries == ENERGY_REJECT_BUDGET:
            raise RuntimeError(
                f"rejection budget exhausted for class {done % 2}; "
                "margin_scale too aggressive for these task parameters")
    # the candidates drawn after the last one read must not move the noise
    rng.bit_generator.state = state
    rng.bit_generator.advance((j + 1) * per_draw)
    labels = np.arange(count, dtype=np.int64) % 2
    if noise > 0 and count > 0:
        windows = windows + noise * rng.standard_normal(windows.shape)
        if not np.isfinite(windows).all():
            raise FloatingPointError(f"windows overflow for noise={noise}")
    return SyntheticTask(windows, labels, exponent=float(exponent),
                         noise=float(noise), seed=int(seed),
                         threshold=threshold, margin=margin)


# --------------------------------------------------------------------------
# CSV cache for windowed datasets

def save_windows_csv(dataset: WindowedDataset, path) -> None:
    """Cache a windowed dataset, version 2: a shape comment, the series
    under a header of channel names (one row a line), then one
    ``start,label`` line per window, so each row is written once."""
    with open(path, "w") as fh:
        fh.write(f"# version=2 win_len={dataset.win_len} "
                 f"channels={dataset.channels} stride={dataset.stride} "
                 f"rows={len(dataset.series)} windows={len(dataset)}\n")
        fh.write(",".join(f"c{j}" for j in range(dataset.channels)) + "\n")
        for row in dataset.series:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
        fh.write("start,label\n")
        fh.writelines(f"{start},{label}\n" for start, label in
                      zip(dataset.starts.tolist(), dataset.labels.tolist()))


def load_windows_csv(path) -> WindowedDataset:
    """Read a cache written by ``save_windows_csv``. A version-2 cache
    gives back the dataset's series, starts, labels and stride. A
    version-1 cache (no ``version`` on its shape line; under a header, a
    label and a window's values, row by row, on each line) loads as
    back-to-back windows. A malformed shape line, header or line is a
    ValueError naming the path and the line."""
    with open(path) as fh:
        shape_line = fh.readline().rstrip("\n")
        if not shape_line.startswith("#"):
            raise ValueError(f"{path}: missing shape comment line")
        try:
            fields = dict(part.split("=") for part in shape_line[1:].split())
            version = int(fields.get("version", 1))
            if version not in (1, 2):
                raise ValueError(f"unknown version {version}")
            keys = ("win_len", "channels", "stride", "rows", "windows")
            sizes = [int(fields[key]) for key in keys[:2 * version + 1]]
            if min(sizes[:3]) < 1 or min(sizes) < 0:
                raise ValueError("a size below 1 or a count below 0")
        except (KeyError, ValueError) as exc:
            raise ValueError(
                f"{path}: line 1: shape comment {shape_line!r} is not '# "
                "version=2 win_len=W channels=C stride=S rows=R windows=N' "
                "or '# win_len=W channels=C stride=S' with sizes >= 1 "
                f"({exc!r})") from None
        win_len, channels, stride = sizes[:3]
        if version == 1:
            labels, values = _read_table(path, fh, 2, ["label"] + [
                f"v{i}" for i in range(win_len * channels)], 1)
            return WindowedDataset(values.reshape(-1, win_len, channels),
                                   labels[:, 0], win_len, stride)
        rows, n = sizes[3:]
        series = _read_table(path, fh, 2, [f"c{j}" for j in
                                           range(channels)], 0, rows)[1]
        ints = _read_table(path, fh, rows + 3, ["start", "label"], 2, n)[0]
        if next(fh, None) is not None:
            raise ValueError(f"{path}: line {rows + n + 4}: more than the "
                             f"{n} windows the shape line gives")
    starts, labels = ints.T
    outside = np.flatnonzero((starts < 0) | (starts > rows - win_len))
    if outside.size:
        raise ValueError(
            f"{path}: line {rows + 4 + outside[0]}: start "
            f"{starts[outside[0]]} puts a window outside the {rows} rows")
    return WindowedDataset.from_series(series, starts, labels, win_len,
                                       stride)


def _read_table(path, lines, first: int, header: list, ints: int,
                count: int | None = None) -> tuple:
    """The table whose header is the next of a cache's ``lines``, line
    ``first`` of the file: ``count`` lines below it (every line left when
    None) of comma-separated fields, as an int64 array of their first
    ``ints`` fields and a float64 array of the rest. Another header, a
    line of another length, a field that is not a number or a file that
    ends early is a ValueError naming the path and the line."""
    if next(lines, "").rstrip("\n") != ",".join(header):
        raise ValueError(f"{path}: line {first}: header does not match "
                         f"the shape line's {len(header)} fields")
    whole, values = [], []
    for line, text in enumerate(islice(lines, count), start=first + 1):
        row = text.rstrip("\n").split(",")
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line}: {len(row)} fields, "
                             f"expected {len(header)}")
        try:
            whole.append([int(v) for v in row[:ints]])
            values.append(np.array([float(v) for v in row[ints:]]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    if count is not None and len(whole) < count:
        raise ValueError(f"{path}: line {first + 1 + len(whole)}: the file "
                         f"ends after {len(whole)} of {count} lines")
    return (np.array(whole, dtype=np.int64).reshape(len(whole), ints),
            np.array(values).reshape(len(whole), len(header) - ints))
