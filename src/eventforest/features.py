"""Gammatone-cepstral features for audio event detection streams."""

from __future__ import annotations

import csv
import functools
import math
import os
import struct
import wave
from dataclasses import dataclass

import numpy as np

# Additive floor applied before the log; also the post-subtraction energy floor.
LOG_FLOOR = 1e-10
NOISE_FLOOR_PERCENTILE = 10.0

# Glasberg-Moore equivalent rectangular bandwidth constants.
_EAR_Q = 9.26449
_MIN_BW = 24.7
_BW_FACTOR = 1.019
_GT_ORDER = 4

# pi to long double precision, as pocketfft's twiddle tables take it.
_PI = np.longdouble("3.141592653589793238462643383279502884197")

# Windows pooled by the filterbank in one product, and windows whose spectra
# are taken at once: at 1,600-sample windows one product's power spectra take
# 3.3 MB, and one batch's frames and complex spectra 1.6 MB.
_WINDOW_BLOCK = 512
_FFT_BATCH = 64

# Segments whose features a FeatureStream yields at once, and which detection
# routes and renders together. A 60 s stream (5,991 segments at 10 ms hops)
# is one block, so it takes the numpy calls of a whole-stream transform.
_SEGMENT_BLOCK = 8192

# Frames scaled at once when a float WAV is checked for non-finite samples.
_CHECK_FRAMES = 1 << 20

# Taps of the longest anti-aliasing filter resample lets scipy design, which
# takes 20 * max(up, down) of them: 32 MB of float64. 44.1 -> 16 kHz needs
# 8,820 taps, and any rate up to 209 kHz fits whatever its ratio to the target.
_MAX_RESAMPLE_TAPS = 1 << 22

# Rows whose DCT is taken at once: at 64 channels, a chunk's spectra and
# temporaries take about 1 MB.
_DCT_ROWS = 512


@dataclass(eq=False)
class Waveform:
    """Mono audio, float64 samples nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"expected mono samples, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")
        self.samples = samples
        self.sample_rate = int(self.sample_rate)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def rms(self) -> float:
        if len(self.samples) == 0:
            return 0.0
        return float(np.sqrt(np.mean(np.square(self.samples))))


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction parameters; equality of these fields defines feature-space compatibility.

    ``hop_len`` and ``window_len`` hold the whole samples applied at ``sample_rate``
    (10 ms at 22,050 Hz is ``220 / 22050`` s); segment times and the model
    fingerprint use these values. The rate must convert to a float, and there
    are at most as many channels as the window's spectrum has bins.
    """

    sample_rate: int = 16000
    n_channels: int = 64
    f_min: float = 50.0
    f_max: float = 8000.0
    window_len: float = 0.1
    hop_len: float = 0.01
    noise_subtraction: bool = False

    def __post_init__(self):
        try:
            float(self.sample_rate)
        except OverflowError:
            raise ValueError("sample rate is beyond the float range") from None
        if self.n_channels < 2:
            raise ValueError(f"need at least 2 channels, got {self.n_channels}")
        if not 0.0 < self.f_min < self.f_max:
            raise ValueError(f"need 0 < f_min < f_max, got {self.f_min}, {self.f_max}")
        if self.f_max > self.sample_rate / 2:
            raise ValueError(
                f"f_max {self.f_max} exceeds Nyquist for rate {self.sample_rate}"
            )
        if not 0.0 < self.hop_len <= self.window_len:
            raise ValueError(
                f"need 0 < hop_len <= window_len, got {self.hop_len}, {self.window_len}"
            )
        for name in ("hop_len", "window_len"):  # only the hop can round to 0
            value = getattr(self, name)
            if not math.isfinite(value * self.sample_rate):
                raise ValueError(f"{name} {value} is too long at {self.sample_rate} Hz")
            samples = int(round(value * self.sample_rate))
            if samples < 1:
                raise ValueError(f"hop_len {self.hop_len} is shorter than one sample "
                                 f"at rate {self.sample_rate}")
            object.__setattr__(self, name, samples / self.sample_rate)
        # the loop ends on the window, whose rfft gives each channel its bins
        bins = samples // 2 + 1
        if self.n_channels > bins:
            raise ValueError(f"{self.n_channels} channels exceed the {bins} "
                             f"spectral bins of a {samples}-sample window")


@dataclass(eq=False)
class FeatureMatrix:
    """One cepstral row per analysis segment."""

    rows: np.ndarray
    segment_times: np.ndarray
    config: FeatureConfig

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        self.segment_times = np.asarray(self.segment_times, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ValueError(f"rows must be 2-d, got shape {self.rows.shape}")
        if len(self.segment_times) != len(self.rows):
            raise ValueError("segment_times length does not match rows")

    @property
    def n_segments(self) -> int:
        return self.rows.shape[0]

    def segment_centers(self) -> np.ndarray:
        """Center time of each segment in seconds."""
        return self.segment_times + self.config.window_len / 2.0

    @property
    def duration(self) -> float:
        """Time covered by the segmented stream, in seconds."""
        if self.n_segments == 0:
            return 0.0
        return float(self.segment_times[-1]) + self.config.window_len


def load_audio(path) -> Waveform:
    """Decode a PCM or float WAV file to a mono Waveform.

    Integer encodings are scaled to [-1, 1]; multi-channel input is averaged
    down to mono. A file whose data chunk runs past its end is rejected.
    """
    rate, n_frames, read, _ = _open_wav(path)
    return Waveform(read(0, n_frames), rate)


def _scaled(data: np.ndarray) -> np.ndarray:
    """Mono float64 samples of decoded PCM frames, integers scaled to [-1, 1].

    Scaled in place: one float64 copy of the frames, the same values as
    scaling into a new array. Every operation is elementwise or per frame, so
    a block of frames scales to the same values as the whole stream.
    """
    samples = data.astype(np.float64, copy=False)
    if data.dtype == np.uint8:
        samples -= 128.0
        samples /= 128.0
    elif data.dtype == np.int16:
        samples /= 32768.0
    elif data.dtype == np.int32:
        # 24-bit PCM is decoded into the high bytes of int32
        samples /= 2147483648.0
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return samples


# Sample encodings that load, as a byte order, a numpy kind and the bytes per
# sample. 3-byte PCM has no numpy dtype and is decoded by ``_int24``.
_ENCODINGS = {"<u1", ">u1", "<i2", "<i3", "<i4", "<f4", "<f8"}

# WAVE format tags: integer PCM, IEEE float, and the extensible header whose
# subformat GUID names one of them. The GUID's last 12 bytes, in file order.
_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 1, 3, 0xFFFE
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xAA\x00\x38\x9B\x71"}


def _open_wav(path):
    """``(rate, n_frames, read, floating)`` of a WAV file that passed every check.

    ``read(start, stop)`` returns the mono float64 samples of frames
    ``[start, stop)``, scaled by ``_scaled``, from a positioned read of the
    file, so only the frames asked for are ever in memory. ``floating`` is
    true for a float encoding, the only one whose samples can be non-finite.
    """
    try:
        fmt, order, offset, size = _wav_chunks(path)
        rate, channels, width, encoding = _wav_format(fmt, order)
    except (FileNotFoundError, _TruncatedWav):
        raise
    except Exception as exc:
        raise ValueError(f"unsupported/corrupt container: {path}: {exc}") from exc
    if encoding not in _ENCODINGS:
        raise ValueError(f"unsupported sample encoding {encoding} in {path}")
    n_frames = size // (channels * width)
    shape = (-1, channels) if channels > 1 else (-1,)
    floating = encoding[1] == "f"

    def read(start: int, stop: int) -> np.ndarray:
        at, count = offset + start * channels * width, (stop - start) * channels
        if width == 3:
            frames = _int24(path, at, count)
        else:
            with open(path, "rb") as handle:
                handle.seek(at)
                frames = np.fromfile(handle, encoding, count)
        return _scaled(frames.reshape(shape))

    return rate, n_frames, read, floating


class _TruncatedWav(ValueError):
    """A WAV file whose data chunk runs past its end."""


def _wav_chunks(path) -> tuple:
    """``(fmt, order, offset, size)`` of a RIFF, RIFX or RF64 WAVE file.

    One walk over the chunk headers, up to the data chunk: ``fmt`` is the
    body of the format chunk before it (its first 40 bytes, all that
    ``_wav_format`` reads), ``order`` the byte order of the sizes and
    samples, and ``offset`` and ``size`` locate the samples. RF64 keeps the
    data size in its ds64 chunk. A data chunk that declares more bytes than
    the file holds raises _TruncatedWav before the format is looked at, so a
    cut recording is rejected as such, and not loaded as a shorter stream.
    Every other fault raises ValueError.
    """
    file_size = os.path.getsize(path)
    with open(path, "rb") as handle:
        riff = handle.read(12)
        riff_id, form = riff[:4], riff[8:12]
        if riff_id not in (b"RIFF", b"RIFX", b"RF64"):
            raise ValueError(f"File format {riff_id!r} not understood. Only "
                             "'RIFF', 'RIFX', and 'RF64' supported.")
        if form != b"WAVE":
            raise ValueError(f"Not a WAV file. RIFF form type is {form!r}.")
        order = ">" if riff_id == b"RIFX" else "<"
        fmt = data_size64 = None
        while True:
            header = handle.read(8)
            if len(header) < 8:
                raise ValueError("Unexpected end of file.")
            chunk_id, size = struct.unpack(order + "4sI", header)
            offset = handle.tell()
            if chunk_id == b"fmt ":
                fmt = handle.read(min(size, 40))
            elif chunk_id == b"ds64":
                # the RIFF size, then the data size
                body = handle.read(16)
                if size < 16 or len(body) < 16:
                    raise ValueError(f"ds64 chunk of {size} bytes is too short")
                data_size64 = struct.unpack("<8xQ", body)[0]
            elif chunk_id == b"data":
                if riff_id == b"RF64":
                    if data_size64 is None:
                        raise ValueError("Invalid RF64 file: ds64 chunk not found.")
                    size = data_size64
                available = file_size - offset
                if size > available:
                    raise _TruncatedWav(
                        f"truncated WAV: {path}: data chunk declares {size} bytes, "
                        f"file holds {available}"
                    )
                if fmt is None:
                    raise ValueError("No fmt chunk before data")
                return fmt, order, offset, size
            handle.seek(offset + size + (size & 1))


def _wav_format(fmt: bytes, order: str) -> tuple:
    """``(rate, channels, width, encoding)`` of a WAV format chunk's body.

    ``width`` is the bytes of one sample and ``encoding`` its byte order,
    numpy kind and width, as ``"<i2"``. PCM, IEEE float and the extensible
    header with either as its subformat are read; every other format, a
    frame that is not ``channels`` whole samples, and a PCM byte rate other
    than rate times frame bytes raise ValueError.
    """
    if len(fmt) < 16:
        raise ValueError("Binary structure of wave file is not compliant")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack(
        order + "HHIIHH", fmt[:16])
    if tag == _WAVE_EXTENSIBLE and len(fmt) >= 18:
        if struct.unpack(order + "H", fmt[16:18])[0] < 22 or len(fmt) < 40:
            raise ValueError("Binary structure of wave file is not compliant")
        guid = fmt[24:40]
        if guid.endswith(_GUID_TAIL[order]):
            tag = struct.unpack(order + "I", guid[:4])[0]
    if tag not in (_WAVE_PCM, _WAVE_FLOAT):
        raise ValueError(f"Unknown wave file format: {tag:#06x}. Supported "
                         "formats: PCM, IEEE_FLOAT")
    width = block_align // channels if channels else 0
    if width == 0 or block_align != channels * width:
        raise ValueError(f"WAV header is invalid: nBlockAlign = {block_align} "
                         f"is not a whole number of bytes for {channels} channels")
    if tag == _WAVE_PCM:
        if byte_rate != rate * block_align:
            raise ValueError("WAV header is invalid: nAvgBytesPerSec must"
                             " equal product of nSamplesPerSec and"
                             " nBlockAlign, but file has nSamplesPerSec ="
                             f" {rate}, nBlockAlign = {block_align}, and"
                             f" nAvgBytesPerSec = {byte_rate}")
        if bits > 64:
            raise ValueError(f"Unsupported bit depth: the WAV file has {bits}-bit "
                             "integer data.")
        kind = "u" if 1 <= bits <= 8 else "i"  # 8 bits and fewer are unsigned
    elif bits in (32, 64):
        kind = "f"
    else:
        raise ValueError(f"Unsupported bit depth: the WAV file has {bits}-bit "
                         "floating-point data.")
    return rate, channels, width, f"{order}{kind}{width}"


def _int24(path, offset: int, count: int) -> np.ndarray:
    """``count`` 3-byte little-endian samples from ``offset``, each in the
    high bytes of an int32."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        raw = np.fromfile(handle, np.uint8, 3 * count)
    wide = np.zeros((count, 4), np.uint8)
    wide[:, 1:] = raw.reshape(count, 3)
    return wide.view("<i4").reshape(count)


def save_audio(path, waveform: Waveform) -> None:
    """Write a Waveform as 16-bit mono PCM, clipping to full scale.

    The bytes equal those of ``scipy.io.wavfile.write`` for the same samples.
    """
    clipped = np.clip(waveform.samples, -1.0, 32767.0 / 32768.0)
    pcm = (clipped * 32768.0).astype(np.int16)
    with open(path, "wb") as handle, wave.open(handle, "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(waveform.sample_rate)
        writer.writeframes(pcm)  # native order; the module writes little-endian


def resample(waveform: Waveform, target_rate: int) -> Waveform:
    """Polyphase resampling; identity when rates already match.

    A pair of rates whose reduced ratio needs a filter longer than
    ``_MAX_RESAMPLE_TAPS`` is rejected before any filter is designed.
    """
    target_rate = int(target_rate)
    if target_rate <= 0:
        raise ValueError(f"target rate must be positive, got {target_rate}")
    rate = waveform.sample_rate
    if target_rate == rate:
        return waveform
    g = math.gcd(target_rate, rate)
    up, down = target_rate // g, rate // g
    taps = 20 * max(up, down)
    if taps > _MAX_RESAMPLE_TAPS:
        raise ValueError(
            f"cannot resample {rate} Hz to {target_rate} Hz: the filter would "
            f"take {taps:,} taps, more than {_MAX_RESAMPLE_TAPS:,}"
        )
    from scipy.signal import resample_poly

    return Waveform(resample_poly(waveform.samples, up, down), target_rate)


def hz_to_cam(f):
    """Frequency in Hz to ERB-rate scale (Cams)."""
    return 21.4 * np.log10(4.37e-3 * np.asarray(f, dtype=np.float64) + 1.0)


def cam_to_hz(c):
    """ERB-rate scale (Cams) back to Hz."""
    return (np.power(10.0, np.asarray(c, dtype=np.float64) / 21.4) - 1.0) / 4.37e-3


def erb_bandwidth(f):
    """Equivalent rectangular bandwidth at frequency f, in Hz."""
    return _MIN_BW + np.asarray(f, dtype=np.float64) / _EAR_Q


def erb_space(f_min: float, f_max: float, n_channels: int) -> np.ndarray:
    """Center frequencies equally spaced on the ERB-rate scale, ascending."""
    cams = np.linspace(hz_to_cam(f_min), hz_to_cam(f_max), n_channels)
    return cam_to_hz(cams)


@functools.lru_cache(maxsize=16)
def gammatone_weights(config: FeatureConfig, n_fft: int) -> np.ndarray:
    """Spectral weights of a gammatone filterbank on the rFFT bins.

    Row k holds the squared magnitude response of a fourth-order gammatone
    centered at the k-th ERB-spaced frequency, normalized to unit sum so each
    channel integrates the power spectrum with equal total weight. Computed
    once per (config, n_fft) and returned read-only, since it is shared.
    """
    freqs = np.fft.rfftfreq(n_fft, 1.0 / config.sample_rate)
    centers = erb_space(config.f_min, config.f_max, config.n_channels)
    bw = _BW_FACTOR * erb_bandwidth(centers)
    rel = (freqs[np.newaxis, :] - centers[:, np.newaxis]) / bw[:, np.newaxis]
    weights = np.power(1.0 + rel * rel, -float(_GT_ORDER))
    weights = weights / weights.sum(axis=1, keepdims=True)
    weights.flags.writeable = False
    return weights


def subtract_noise_floor(energies: np.ndarray) -> np.ndarray:
    """Remove a per-channel stationary noise estimate from filterbank energies.

    The floor is the 10th percentile of each channel over all segments; the
    result is clamped to a small positive value so the log stays defined.
    """
    energies = np.asarray(energies, dtype=np.float64)
    if np.any(energies < 0):
        raise ValueError("filterbank energies must be non-negative")
    if energies.shape[0] == 0:
        return energies.copy()
    floor = np.percentile(energies, NOISE_FLOOR_PERCENTILE, axis=0)
    return np.maximum(energies - floor, LOG_FLOOR)


def periodic_hann(n: int) -> np.ndarray:
    """Periodic Hann window, equal bit for bit to ``get_window("hann", n)``.

    scipy sums 0.5 * cos(0 * t) = 0.5 and 0.5 * cos(t) into zeros over
    ``n + 1`` points and drops the last; both steps are exact as written here.
    """
    if n <= 1:
        return np.ones(n)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]


@functools.lru_cache(maxsize=16)
def _dct_constants(n: int) -> tuple:
    """Scale and post-twiddle factors of pocketfft's orthonormal DCT-II of length n.

    ``scale`` is 1/sqrt(2n) rounded from long double. The twiddles are
    cos(2 pi k / 4n), k = 1..n, built as pocketfft's ``sincos_2pibyn(4n)``
    builds them: libm's cos and sin of a first table of angles and a second
    of coarse angles, and each value a product of one entry of each, since
    numpy's vectorized cos differs by an ulp. ``a[k-1]`` and ``b[k-1]``
    weight the pair k, n-k of the post-twiddle; ``mid`` the middle
    coefficient of an even length.
    """
    points = 4 * n
    angle = float(np.longdouble(0.25) * _PI / np.longdouble(points))

    def sincos(x: int) -> tuple:
        # cos and sin of 2 pi x / points, up to a half turn, from libm at an
        # angle of at most an eighth of a turn
        x <<= 3
        if x >= 2 * points:  # second quadrant
            x -= 2 * points
            if x < points:
                return -math.sin(x * angle), math.cos(x * angle)
            return -math.cos((2 * points - x) * angle), math.sin((2 * points - x) * angle)
        if x < points:
            return math.cos(x * angle), math.sin(x * angle)
        return math.sin((2 * points - x) * angle), math.cos((2 * points - x) * angle)

    n_values = (points + 2) // 2
    shift = 1
    while (1 << shift) * (1 << shift) < n_values:
        shift += 1
    mask = (1 << shift) - 1
    fine = [sincos(i) for i in range(mask + 1)]
    coarse = [sincos(i * (mask + 1)) for i in range((n >> shift) + 1)]
    twiddles = []
    for k in range(1, n + 1):
        (c1, s1), (c2, s2) = fine[k & mask], coarse[k >> shift]
        twiddles.append(c1 * c2 - s1 * s2)
    twiddles = np.array(twiddles)
    half = (n + 1) // 2
    k = np.arange(1, half)
    a, b = twiddles[k - 1], twiddles[n - k - 1]
    a.flags.writeable = b.flags.writeable = False  # shared by every caller
    scale = float(np.longdouble(1) / np.sqrt(np.longdouble(2 * n)))
    return scale, a, b, twiddles[half - 1]


def _dct_ortho(rows: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of each row, in place; returns ``rows``.

    Bit for bit ``scipy.fft.dct(rows, type=2, norm="ortho", axis=1)``: the
    steps of pocketfft's ``T_dcst23``, whose real inverse FFT numpy shares
    from 2.0 on.
    The first and (even length) last inputs are doubled and the others
    paired into sums and differences, an unnormalized inverse real FFT of
    that half-complex packing is scaled by 1/sqrt(2n), and each pair k, n-k
    of outputs is twiddled. Rows are taken ``_DCT_ROWS`` at a time, so the
    spectra and temporaries stay a fixed size however many rows there are.
    """
    m, n = rows.shape
    scale, a, b, mid = _dct_constants(n)
    half, pairs = (n + 1) // 2, (n - 1) // 2
    spectra = np.zeros((min(m, _DCT_ROWS), n // 2 + 1), np.complex128)
    inverse = np.empty((len(spectra), n))
    for lo in range(0, m, _DCT_ROWS):
        x = rows[lo:lo + _DCT_ROWS]
        z, y = spectra[:len(x)], inverse[:len(x)]
        packed = z.view(np.float64)  # the imaginary parts of z[0] and z[n/2] stay 0
        np.multiply(x[:, 0], 2.0, out=packed[:, 0])
        np.add(x[:, 2:n:2], x[:, 1:n - 1:2], out=packed[:, 2:2 + 2 * pairs:2])
        np.subtract(x[:, 2:n:2], x[:, 1:n - 1:2], out=packed[:, 3:3 + 2 * pairs:2])
        if n % 2 == 0:
            np.multiply(x[:, n - 1], 2.0, out=packed[:, n])
        np.fft.irfft(z, n, axis=1, norm="forward", out=y)
        y *= scale
        low, high = y[:, 1:half], y[:, n - 1:n - half:-1]  # k and n-k
        t1 = high * a
        t1 += low * b
        t2 = low * a
        t2 -= high * b
        np.add(t1, t2, out=x[:, 1:half])
        np.subtract(t1, t2, out=x[:, n - 1:n - half:-1])
        x[:, 1:half] *= 0.5
        x[:, n - 1:n - half:-1] *= 0.5
        if n % 2 == 0:
            np.multiply(y[:, half], mid, out=x[:, half])
        np.multiply(y[:, 0], math.sqrt(2.0) * 0.5, out=x[:, 0])
    return rows


def featurize(waveform: Waveform, config: FeatureConfig) -> "FeatureStream":
    """The feature stream of a waveform after resampling it to the configured rate."""
    return FeatureStream.of_samples(resample(waveform, config.sample_rate).samples,
                                    config)


def gammatone_cepstra(waveform: Waveform, config: FeatureConfig) -> FeatureMatrix:
    """Extract gammatone-cepstral coefficients from overlapping windows.

    The rows of every ``FeatureStream`` block of the waveform, in one matrix.
    """
    if waveform.sample_rate != config.sample_rate:
        raise ValueError(
            f"waveform rate {waveform.sample_rate} does not match "
            f"configured rate {config.sample_rate}; resample first"
        )
    return FeatureStream.of_samples(waveform.samples, config).matrix()


def stream_features(path, config: FeatureConfig) -> "FeatureStream":
    """The features of a WAV file, read and transformed a block at a time.

    This is the one path from a file to features. The rows equal
    ``featurize(load_audio(path), config)`` bit for bit. Only the samples of
    one block of windows are held, except for a stream at another rate than
    the configured one, which is read and resampled whole. A float file is
    checked for non-finite samples before the first block.
    """
    rate, n_frames, read, floating = _open_wav(path)
    if rate != config.sample_rate:
        return featurize(Waveform(read(0, n_frames), rate), config)
    if floating:  # a Waveform rejects non-finite samples
        for start in range(0, n_frames, _CHECK_FRAMES):
            Waveform(read(start, min(start + _CHECK_FRAMES, n_frames)), rate)
    return FeatureStream(read, n_frames, config)


class FeatureStream:
    """Gammatone-cepstral rows of one stream, produced a block at a time.

    ``read(start, stop)`` returns the mono float64 samples ``[start, stop)``
    of a stream of ``n_samples`` at the configured rate. The stream is cut
    into windows of ``window_len`` seconds every ``hop_len`` seconds
    (trailing partial window dropped), each window is Hann-weighted, its
    power spectrum is pooled by the gammatone filterbank, and a DCT-II of the
    log energies yields one cepstral row per segment.

    ``blocks`` yields the rows ``_SEGMENT_BLOCK`` segments at a time, so
    memory is one block of samples, windows and rows however long the stream
    is. The rows equal those of one transform over all windows bit for bit:
    windows are transformed in fixed blocks (see ``_energies``), and the log
    and the DCT act on each row alone. Noise subtraction takes a percentile
    over the whole stream, so it keeps the n x channels filterbank energies
    of the whole stream and yields slices of them.
    """

    def __init__(self, read, n_samples: int, config: FeatureConfig):
        self.config = config
        self._read = read
        self._win = int(round(config.window_len * config.sample_rate))
        self._hop = int(round(config.hop_len * config.sample_rate))
        n_samples = int(n_samples)
        self.n_segments = (
            0 if n_samples < self._win else (n_samples - self._win) // self._hop + 1
        )

    @classmethod
    def of_samples(cls, samples: np.ndarray, config: FeatureConfig) -> "FeatureStream":
        """The stream of mono samples held in memory at the configured rate."""
        return cls(lambda start, stop: samples[start:stop], len(samples), config)

    def _energies(self, lo: int, hi: int) -> np.ndarray:
        """Filterbank energies of segments ``[lo, hi)``.

        Windows are transformed in blocks of ``_WINDOW_BLOCK`` that start at
        its multiples, the last block moved back to end with the stream, so
        every product has the same shape: BLAS takes other kernels, which
        round differently, for small products. A row is taken from the last
        block that covers it, so its value does not depend on ``lo`` and
        ``hi``.
        """
        n, width, win, hop = self.n_segments, _WINDOW_BLOCK, self._win, self._hop
        last = max(n - width, 0)
        starts = list(range(lo - lo % width, min(hi, last), width)) if lo < last else []
        if hi > last:
            starts.append(last)
        hann = periodic_hann(win)
        weights_t = gammatone_weights(self.config, win).T
        out = np.empty((hi - lo, self.config.n_channels))
        for start in starts:
            stop = min(start + width, n)
            owned = stop if start == last else min(stop, last)
            samples = self._read(start * hop, (stop - 1) * hop + win)
            windows = np.lib.stride_tricks.sliding_window_view(samples, win)[::hop]
            power = np.empty((stop - start, weights_t.shape[0]))
            for i in range(0, stop - start, _FFT_BATCH):
                batch = windows[i:i + _FFT_BATCH]
                np.abs(np.fft.rfft(batch * hann, axis=1), out=power[i:i + len(batch)])
            np.square(power, out=power)
            energies = np.matmul(power, weights_t)
            a, b = max(start, lo), min(owned, hi)
            out[a - lo:b - lo] = energies[a - start:b - start]
        return out

    def blocks(self):
        """``FeatureMatrix`` blocks of ``_SEGMENT_BLOCK`` rows, in stream order."""
        n, config = self.n_segments, self.config
        whole = None
        if config.noise_subtraction:
            whole = subtract_noise_floor(self._energies(0, n))
        for lo in range(0, n, _SEGMENT_BLOCK):
            hi = min(lo + _SEGMENT_BLOCK, n)
            energies = self._energies(lo, hi) if whole is None else whole[lo:hi]
            energies += LOG_FLOOR
            np.log(energies, out=energies)
            rows = _dct_ortho(energies)
            times = np.arange(lo, hi) * self._hop / config.sample_rate
            yield FeatureMatrix(rows, times, config)

    def matrix(self) -> FeatureMatrix:
        """All rows of the stream in one matrix."""
        rows = np.empty((self.n_segments, self.config.n_channels))
        lo = 0
        for block in self.blocks():
            rows[lo:lo + block.n_segments] = block.rows
            lo += block.n_segments
        times = np.arange(self.n_segments) * self._hop / self.config.sample_rate
        return FeatureMatrix(rows, times, self.config)


def dumped_blocks(blocks, path, n_channels: int):
    """Pass feature blocks on, after writing each one's rows to a CSV at ``path``.

    The file holds a header and one line per segment: its onset time and its
    coefficients. It is complete once ``blocks`` is exhausted.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time"] + [f"c{i}" for i in range(n_channels)])
        for block in blocks:
            for t, row in zip(block.segment_times, block.rows):
                writer.writerow([f"{t:.6f}"] + [repr(float(v)) for v in row])
            yield block
