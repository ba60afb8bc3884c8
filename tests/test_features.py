"""Audio loading, resampling, filterbank, and cepstral feature tests."""

import os
import struct
import subprocess
import tracemalloc
import warnings
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import byte_platform, oracle_gammatone_cepstra
from eventforest import features as features_module
from eventforest.features import (
    FeatureConfig,
    Waveform,
    dumped_blocks,
    erb_bandwidth,
    erb_space,
    featurize,
    gammatone_cepstra,
    gammatone_weights,
    hz_to_cam,
    cam_to_hz,
    load_audio,
    periodic_hann,
    resample,
    save_audio,
    stream_features,
    subtract_noise_floor,
)


def sine(freq, duration, rate, amp=0.5):
    t = np.arange(int(round(duration * rate))) / rate
    return Waveform(amp * np.sin(2 * np.pi * freq * t), rate)


# ---------------------------------------------------------------- load/save


def test_load_int16_scaling(tmp_path):
    import scipy.io.wavfile as wavfile

    path = tmp_path / "one.wav"
    wavfile.write(path, 8000, np.array([16384], dtype=np.int16))
    wave = load_audio(path)
    assert wave.sample_rate == 8000
    assert wave.samples.shape == (1,)
    assert wave.samples[0] == pytest.approx(0.5, abs=1e-9)


def test_load_stereo_mean(tmp_path):
    import scipy.io.wavfile as wavfile

    path = tmp_path / "stereo.wav"
    wavfile.write(path, 8000, np.array([[1.0, 0.0]], dtype=np.float32))
    wave = load_audio(path)
    assert wave.samples.shape == (1,)
    assert wave.samples[0] == pytest.approx(0.5, abs=1e-7)


def test_load_uint8_scaling(tmp_path):
    import scipy.io.wavfile as wavfile

    path = tmp_path / "u8.wav"
    wavfile.write(path, 8000, np.array([128, 255, 0], dtype=np.uint8))
    wave = load_audio(path)
    assert wave.samples[0] == pytest.approx(0.0)
    assert wave.samples[1] == pytest.approx(127 / 128)
    assert wave.samples[2] == pytest.approx(-1.0)


def test_load_int32_scaling(tmp_path):
    # 24-bit PCM, which is read into the high bytes of int32
    samples = [1 << 22, -(1 << 23), 1, 0]
    data = b"".join(v.to_bytes(3, "little", signed=True) for v in samples)
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000 * 3, 3, 24)
    body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    path = tmp_path / "pcm24.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    wave = load_audio(path)
    assert wave.sample_rate == 8000
    assert wave.samples.tolist() == [0.5, -1.0, 2.0 ** -23, 0.0]


def test_load_truncated_header(tmp_path):
    path = tmp_path / "broken.wav"
    path.write_bytes(b"RIFF\x00\x00")
    with pytest.raises(ValueError, match="unsupported/corrupt container"):
        load_audio(path)


def test_load_corrupt_file_raises_without_warnings(tmp_path):
    path = tmp_path / "nofmt.wav"
    save_audio(path, sine(440.0, 0.01, 16000))
    path.write_bytes(path.read_bytes().replace(b"fmt ", b"fmx ", 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="No fmt chunk"):
            load_audio(path)
    assert caught == []


def test_load_rejects_every_cut_inside_the_data_chunk(tmp_path):
    path = tmp_path / "full.wav"
    save_audio(path, sine(440.0, 0.05, 16000))
    full = path.read_bytes()
    assert len(load_audio(path).samples) == 800
    cut = tmp_path / "cut.wav"
    for size in range(44, len(full)):
        cut.write_bytes(full[:size])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="truncated WAV"):
                load_audio(cut)
        assert caught == [], size


def test_cut_wav_is_rejected_before_a_whole_decode(tmp_path, monkeypatch):
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 100) + bytes(10))
    path = tmp_path / "cut.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    reads = recorded_reads(monkeypatch)
    with pytest.raises(ValueError, match="^truncated WAV: .*declares 100 bytes, "
                                         "file holds 10$"):
        load_audio(path)
    assert reads == []  # its format is never parsed


def test_garbled_chunk_header_is_a_corrupt_container(tmp_path):
    # the chunk scan finds a ds64 chunk too short to hold its data size
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 24000, 3, 24)
    body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
            + b"ds64" + struct.pack("<I", 4) + bytes(4)
            + b"data" + struct.pack("<I", 3) + bytes(3))
    path = tmp_path / "garbled.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="^unsupported/corrupt container: "):
            load_audio(path)


def test_load_rf64_checks_the_ds64_data_size(tmp_path):
    # RF64 puts 0xFFFFFFFF in the data chunk and the real size in ds64
    data = struct.pack("<3h", 16384, -16384, 0)
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    riff_size = 4 + 8 + 28 + 8 + len(fmt) + 8 + len(data)
    ds64 = struct.pack("<QQQI", riff_size, len(data), 3, 0)
    body = (b"WAVEds64" + struct.pack("<I", len(ds64)) + ds64
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 0xFFFFFFFF) + data)
    full = b"RF64" + struct.pack("<I", 0xFFFFFFFF) + body
    path = tmp_path / "rf64.wav"
    path.write_bytes(full)
    assert load_audio(path).samples.tolist() == [0.5, -0.5, 0.0]
    path.write_bytes(full[:-1])
    with pytest.raises(ValueError, match="declares 6 bytes, file holds 5"):
        load_audio(path)


@pytest.mark.parametrize("n", [0, 1, 7, 16, 16001])
def test_save_audio_bytes_equal_scipy_writer(n, tmp_path):
    import scipy.io.wavfile as wavfile

    samples = np.random.default_rng(n).uniform(-1.5, 1.5, n)
    if n:
        samples[0] = 1.0  # clipped to 32767
        samples[-1] = -1.0
    ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
    save_audio(ours, Waveform(samples, 22050))
    clipped = np.clip(samples, -1.0, 32767.0 / 32768.0)
    wavfile.write(theirs, 22050, (clipped * 32768.0).astype(np.int16))
    assert ours.read_bytes() == theirs.read_bytes()


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_audio(tmp_path / "absent.wav")


def test_save_load_round_trip(tmp_path):
    wave = sine(440.0, 0.05, 16000)
    path = tmp_path / "tone.wav"
    save_audio(path, wave)
    back = load_audio(path)
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.samples - wave.samples)) < 1.0 / 32768 + 1e-9


# ---------------------------------------------------------------- resample


def test_resample_identity_same_rate():
    wave = sine(440.0, 0.05, 16000)
    out = resample(wave, 16000)
    assert out.sample_rate == 16000
    assert np.array_equal(out.samples, wave.samples)


def test_resample_preserves_dc():
    wave = Waveform(np.full(48000, 0.7), 48000)
    out = resample(wave, 16000)
    assert out.sample_rate == 16000
    assert abs(out.duration - wave.duration) <= 1.0 / 16000
    interior = out.samples[100:-100]
    assert np.max(np.abs(interior - 0.7)) < 1e-3


def test_resample_keeps_tone_frequency():
    wave = sine(1000.0, 1.0, 48000)
    out = resample(wave, 16000)
    spectrum = np.abs(np.fft.rfft(out.samples))
    peak = int(np.argmax(spectrum))
    freqs = np.fft.rfftfreq(len(out.samples), d=1 / 16000)
    bin_width = freqs[1] - freqs[0]
    assert abs(freqs[peak] - 1000.0) <= bin_width


# ---------------------------------------------------------------- windowing


def test_segment_count_one_second():
    wave = Waveform(np.zeros(16000), 16000)
    feats = gammatone_cepstra(wave, FeatureConfig())
    assert feats.n_segments == 91
    steps = np.diff(feats.segment_times)
    assert np.allclose(steps, 0.01, atol=1e-12)


def test_segment_times_follow_hop_grid():
    wave = Waveform(np.zeros(4800), 16000)
    feats = gammatone_cepstra(wave, FeatureConfig())
    assert np.allclose(feats.segment_times, np.arange(feats.n_segments) * 0.01)
    assert np.allclose(feats.segment_centers(), feats.segment_times + 0.05)


def test_short_waveform_gives_empty_matrix():
    wave = Waveform(np.zeros(1599), 16000)
    feats = gammatone_cepstra(wave, FeatureConfig())
    assert feats.n_segments == 0
    assert feats.rows.shape == (0, 64)


@settings(max_examples=20, deadline=None)
@given(n_samples=st.integers(min_value=0, max_value=9000))
def test_segment_count_formula(n_samples):
    config = FeatureConfig()
    wave = Waveform(np.zeros(max(n_samples, 1)), 16000)
    feats = gammatone_cepstra(wave, config)
    window = int(round(config.window_len * 16000))
    hop = int(round(config.hop_len * 16000))
    expected = (len(wave.samples) - window) // hop + 1
    assert feats.n_segments == max(expected, 0)


def test_zero_waveform_rows_identical():
    wave = Waveform(np.zeros(8000), 16000)
    feats = gammatone_cepstra(wave, FeatureConfig())
    assert feats.n_segments == (8000 - 1600) // 160 + 1
    assert np.all(feats.rows == feats.rows[0])


def test_feature_dimension_matches_channels():
    wave = Waveform(np.random.default_rng(0).normal(size=6400) * 0.1, 16000)
    for n_channels in (8, 64):
        feats = gammatone_cepstra(wave, FeatureConfig(n_channels=n_channels))
        assert feats.rows.shape[1] == n_channels


def test_features_deterministic():
    rng = np.random.default_rng(3)
    wave = Waveform(rng.normal(size=8000) * 0.1, 16000)
    a = gammatone_cepstra(wave, FeatureConfig())
    b = gammatone_cepstra(wave, FeatureConfig())
    assert np.array_equal(a.rows, b.rows)


def test_rate_mismatch_rejected():
    wave = Waveform(np.zeros(8000), 8000)
    with pytest.raises(ValueError, match="does not match configured rate"):
        gammatone_cepstra(wave, FeatureConfig())


# ---------------------------------------------------------------- filterbank


def test_filterbank_rows_normalized():
    config = FeatureConfig()
    weights = gammatone_weights(config, n_fft=1600)
    assert weights.shape == (64, 1600 // 2 + 1)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(weights >= 0.0)


def test_filterbank_computed_once_and_read_only():
    weights = gammatone_weights(FeatureConfig(), 1600)
    assert gammatone_weights(FeatureConfig(), 1600) is weights
    assert gammatone_weights(FeatureConfig(noise_subtraction=True), 1600) is not weights
    assert np.array_equal(weights, gammatone_weights.__wrapped__(FeatureConfig(), 1600))
    with pytest.raises(ValueError, match="read-only"):
        weights[0, 0] = 1.0


def test_center_frequencies_span_range():
    centers = erb_space(50.0, 8000.0, 64)
    assert len(centers) == 64
    assert np.all(np.diff(centers) > 0)
    assert centers[0] == pytest.approx(50.0, rel=1e-9)
    assert centers[-1] == pytest.approx(8000.0, rel=1e-9)


def test_erb_scale_round_trip():
    freqs = np.array([50.0, 500.0, 4000.0, 8000.0])
    assert np.allclose(cam_to_hz(hz_to_cam(freqs)), freqs, rtol=1e-10)
    assert np.all(erb_bandwidth(freqs) > 0)
    assert erb_bandwidth(8000.0) > erb_bandwidth(50.0)


def test_tone_and_noise_features_separate():
    rng = np.random.default_rng(5)
    config = FeatureConfig()
    tone = gammatone_cepstra(sine(500.0, 0.8, 16000), config)
    noise = gammatone_cepstra(
        Waveform(rng.normal(size=12800) * 0.1, 16000), config
    )
    gap = np.linalg.norm(tone.rows.mean(axis=0) - noise.rows.mean(axis=0))
    assert gap > 1.0


# ---------------------------------------------------------------- noise floor


def test_noise_floor_constant_channel_collapses():
    energies = np.ones((20, 3))
    out = subtract_noise_floor(energies)
    assert np.allclose(out, 1e-10)


def test_noise_floor_keeps_impulse():
    energies = np.zeros((20, 1))
    energies[7, 0] = 5.0
    out = subtract_noise_floor(energies)
    assert out[7, 0] == pytest.approx(5.0)
    assert np.allclose(np.delete(out, 7, axis=0), 1e-10)


def test_noise_floor_reduces_background_segments():
    rng = np.random.default_rng(9)
    n_channels = 64
    background = rng.uniform(0.5, 1.0, size=(80, n_channels))
    tone_rows = background[:20] + 4.0
    energies = np.vstack([background, tone_rows])
    out = subtract_noise_floor(energies)
    reduced = np.sum(np.all(out[:80] < background, axis=0))
    assert reduced >= 0.9 * n_channels


def test_noise_floor_rejects_negative_energy():
    with pytest.raises(ValueError):
        subtract_noise_floor(np.array([[-1.0]]))


# ---------------------------------------------------------------- config


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(f_min=8000.0, f_max=50.0)
    with pytest.raises(ValueError):
        FeatureConfig(f_max=9000.0)
    with pytest.raises(ValueError):
        FeatureConfig(hop_len=0.2, window_len=0.1)
    with pytest.raises(ValueError):
        FeatureConfig(n_channels=1)
    with pytest.raises(ValueError, match="shorter than one sample"):
        FeatureConfig(hop_len=1e-5, window_len=1e-5)


@pytest.mark.parametrize("hop_len, window_len, field", [
    (1e308, 1e308, "hop_len"),
    (0.01, 1e308, "window_len"),
    (float("inf"), float("inf"), "hop_len"),
])
def test_feature_config_rejects_lengths_beyond_a_sample_count(hop_len, window_len,
                                                              field):
    with pytest.raises(ValueError, match=f"^{field} .* is too long at 16000 Hz"):
        FeatureConfig(hop_len=hop_len, window_len=window_len)


def test_feature_config_holds_the_applied_whole_sample_hop():
    # 10 ms is 220.5 samples at 22.05 kHz; the stream hops 220 (9.977 ms)
    config = FeatureConfig(sample_rate=22050)
    assert config.hop_len == 220 / 22050
    assert config.window_len == 2205 / 22050
    assert FeatureConfig(**asdict(config)) == config
    assert FeatureConfig(sample_rate=22050, hop_len=220 / 22050) == config
    times = featurize(Waveform(np.zeros(4410), 22050), config).matrix().segment_times
    assert times[1:].tolist() == [i * 220 / 22050 for i in range(1, len(times))]


@pytest.mark.parametrize("rate", [16000, 32000, 44100, 48000])
def test_whole_sample_defaults_keep_their_literals(rate):
    config = FeatureConfig(sample_rate=rate)
    assert config.hop_len.hex() == (0.01).hex()
    assert config.window_len.hex() == (0.1).hex()
    assert FeatureConfig(**asdict(config)) == config


def test_noise_subtraction_is_part_of_the_feature_space():
    # the same stream gives other rows with and without it, so models trained
    # each way do not share a FeatureConfig
    wave = sine(600, 0.5, 16000)
    wave.samples += np.random.default_rng(0).normal(size=len(wave.samples)) * 0.05
    plain = FeatureConfig()
    subtracted = FeatureConfig(noise_subtraction=True)
    assert plain != subtracted
    rows = gammatone_cepstra(wave, plain).rows
    other = gammatone_cepstra(wave, subtracted).rows
    assert rows.shape == other.shape and not np.allclose(rows, other)


# ---------------------------------------------------------------- CSV dump


def dump_features_csv(stream, path) -> None:
    """Write one row per segment of a FeatureStream: onset time, then coefficients."""
    for _ in dumped_blocks(stream.blocks(), path, stream.config.n_channels):
        pass


def test_feature_csv_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(21)
    wave = Waveform(rng.normal(size=4000) * 0.1, 16000)
    stream = featurize(wave, FeatureConfig(n_channels=8))
    feats = stream.matrix()
    path = tmp_path / "features.csv"
    dump_features_csv(stream, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time," + ",".join(f"c{i}" for i in range(8))
    assert len(lines) == feats.n_segments + 1
    parsed = np.array(
        [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    )
    assert np.array_equal(parsed, feats.rows)


# ---------------------------------------------------------------- window


def test_periodic_hann_equals_scipy_bit_for_bit():
    from scipy.signal import get_window

    for n in list(range(1, 130)) + [400, 1023, 1024, 1599, 1600, 1601, 2999]:
        assert np.array_equal(periodic_hann(n), get_window("hann", n, fftbins=True)), n


def test_featurizing_leaves_scipy_signal_unloaded():
    import eventforest

    src = str(Path(eventforest.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, numpy as np\n"
        "from eventforest.features import FeatureConfig, Waveform, "
        "gammatone_cepstra, resample\n"
        "wave = Waveform(np.random.default_rng(0).normal(size=16000) * 0.1, 16000)\n"
        "features = gammatone_cepstra(resample(wave, 16000), FeatureConfig())\n"
        "print(features.n_segments, 'scipy.signal' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.split() == ["91", "False"]


@pytest.mark.parametrize("n_rows", [0, 1, 511, 512, 513, 8192])
def test_dct_equals_scipy_bit_for_bit(n_rows):
    from scipy.fft import dct

    rng = np.random.default_rng(n_rows)
    # every length up to 128 channels; 8,192 rows (16 chunks) at a few of them
    lengths = range(2, 129) if n_rows < 8192 else (2, 3, 40, 63, 64, 65, 127, 128)
    for n in lengths:
        # log energies of a filterbank, and values of every magnitude
        rows = np.log(rng.exponential(size=(n_rows, n)) + 1e-10)
        rows[::7] = rng.normal(size=(len(rows[::7]), n)) * 10.0 ** rng.uniform(
            -30, 30, size=(len(rows[::7]), 1))
        expected = dct(rows, type=2, norm="ortho", axis=1)
        assert features_module._dct_ortho(rows).tobytes() == expected.tobytes(), n


# ---------------------------------------------------------------- blocks


@pytest.mark.parametrize("noise_subtraction", [False, True])
@pytest.mark.parametrize("hop_len", [0.01, 0.1])
@pytest.mark.parametrize("n_segments", [0, 1, 511, 512, 513, 1025])
def test_blocked_cepstra_equal_oracle_bit_for_bit(n_segments, hop_len,
                                                  noise_subtraction):
    config = FeatureConfig(hop_len=hop_len, noise_subtraction=noise_subtraction)
    win = int(round(config.window_len * config.sample_rate))
    hop = int(round(config.hop_len * config.sample_rate))
    # a trailing partial window too short to make one more segment
    n = win - 1 if n_segments == 0 else win + (n_segments - 1) * hop + hop // 2
    wave = Waveform(np.random.default_rng(n_segments).normal(size=n) * 0.1, 16000)
    feats = gammatone_cepstra(wave, config)
    expected = oracle_gammatone_cepstra(wave, config)
    assert feats.rows.shape == (n_segments, config.n_channels)
    assert feats.rows.tobytes() == expected.rows.tobytes(), byte_platform()
    assert feats.segment_times.tobytes() == expected.segment_times.tobytes()


def traced_peak(seconds):
    """Peak traced bytes of one extraction, and the bytes of its rows."""
    wave = Waveform(
        np.random.default_rng(0).normal(size=seconds * 16000) * 0.1, 16000
    )
    tracemalloc.start()
    try:
        rows = gammatone_cepstra(wave, FeatureConfig()).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, rows.nbytes


def test_cepstra_memory_is_output_plus_a_block():
    peak_120, rows_120 = traced_peak(120)
    # one unblocked 120 s frame matrix alone would be 154 MB
    assert peak_120 < 64 * 2**20
    peak_30, rows_30 = traced_peak(30)
    assert peak_120 - 4 * rows_120 <= peak_30 - 4 * rows_30


# ---------------------------------------------------------------- streams


def write_wav(path, rate, frames, format_tag, bits, width, riff=b"RIFF",
              subformat=None):
    """A WAV of ``frames`` (n x channels) in ``width``-byte containers.

    ``riff`` is the container id; ``RIFX`` writes big-endian sizes and
    samples. With ``subformat``, the 16 bytes of a GUID, the format chunk is
    the extensible one (tag 0xFFFE) naming that subformat.
    """
    order = ">" if riff == b"RIFX" else "<"
    n, channels = frames.shape
    if width == 3:
        data = frames.astype("<i4").view(np.uint8).reshape(n, channels, 4)[..., :3]
    else:
        data = frames.astype(frames.dtype.newbyteorder(order))
    payload = data.tobytes()
    tag = format_tag if subformat is None else 0xFFFE
    fmt = struct.pack(order + "HHIIHH", tag, channels, rate,
                      rate * channels * width, channels * width, bits)
    if subformat is not None:  # cbSize, valid bits, channel mask, GUID
        fmt += struct.pack(order + "HHI", 22, bits, 0) + subformat
    body = (b"WAVEfmt " + struct.pack(order + "I", len(fmt)) + fmt
            + b"data" + struct.pack(order + "I", len(payload)) + payload)
    path.write_bytes(riff + struct.pack(order + "I", len(body)) + body)


def scipy_samples(path):
    """``scipy.io.wavfile.read``'s samples of a WAV, scaled and averaged to mono
    as ``load_audio`` documents."""
    import scipy.io.wavfile as wavfile

    _, data = wavfile.read(path)
    samples = data.astype(np.float64)
    if data.dtype == np.uint8:
        samples = (samples - 128.0) / 128.0
    elif data.dtype.kind == "i":
        samples = samples / 2.0 ** (8 * data.dtype.itemsize - 1)
    return samples.mean(axis=1) if samples.ndim == 2 else samples


def subformat_guid(tag, tail=b"\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71"):
    """A little-endian extensible subformat GUID: the format tag, then the
    tail that marks it as a standard format."""
    return struct.pack("<I", tag) + tail


def encoded(name, noise):
    """``noise`` in [-1, 1) as WAV frames: (frames, format tag, bits, width)."""
    if name == "uint8":
        return np.round(noise * 127 + 128).astype(np.uint8), 1, 8, 1
    if name == "int16":
        return np.round(noise * 32767).astype(np.int16), 1, 16, 2
    if name == "int24_in_int32":  # 24 valid bits in the high bytes of 4
        return np.round(noise * 8388607).astype(np.int32) << 8, 1, 24, 4
    if name == "int24":  # 3-byte containers
        return np.round(noise * 8388607).astype(np.int32), 1, 24, 3
    if name == "float32":
        return noise.astype(np.float32), 3, 32, 4
    return noise, 3, 64, 8


def recorded_reads(monkeypatch):
    """What each later WAV open does: ``"header"`` for each parse of a format
    chunk."""
    calls = []
    parse = features_module._wav_format

    def parsing(*args):
        calls.append("header")
        return parse(*args)

    monkeypatch.setattr(features_module, "_wav_format", parsing)
    return calls


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("encoding", ["uint8", "int16", "int24_in_int32", "int24",
                                      "float32", "float64"])
def test_streamed_rows_equal_batch_for_every_encoding(encoding, channels, tmp_path,
                                                      monkeypatch):
    config = FeatureConfig()
    noise = np.random.default_rng(channels).uniform(-0.9, 0.9, size=(96000, channels))
    path = tmp_path / f"{encoding}_{channels}.wav"
    write_wav(path, config.sample_rate, *encoded(encoding, noise))
    batch = featurize(load_audio(path), config).matrix()
    assert batch.n_segments == 591
    # Blocks of 100 segments straddle the 512-window transform blocks.
    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", 100)
    reads = recorded_reads(monkeypatch)
    stream = stream_features(path, config)
    assert reads == ["header"]
    blocks = list(stream.blocks())
    assert [b.n_segments for b in blocks] == [100] * 5 + [91]
    rows = np.concatenate([b.rows for b in blocks])
    times = np.concatenate([b.segment_times for b in blocks])
    assert rows.tobytes() == batch.rows.tobytes()
    assert times.tobytes() == batch.segment_times.tobytes()


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("encoding", ["uint8", "int16", "int24_in_int32", "int24",
                                      "float32", "float64"])
def test_extensible_wav_loads_as_scipy_reads_it(encoding, channels, tmp_path):
    noise = np.random.default_rng(channels).uniform(-0.9, 0.9, size=(1000, channels))
    frames, tag, bits, width = encoded(encoding, noise)
    path = tmp_path / "extensible.wav"
    write_wav(path, 16000, frames, tag, bits, width, subformat=subformat_guid(tag))
    wave = load_audio(path)
    assert wave.sample_rate == 16000
    assert wave.samples.tobytes() == scipy_samples(path).tobytes()


@pytest.mark.parametrize("guid, message", [
    (subformat_guid(1, bytes(12)), "0xfffe"),  # no standard tail
    (subformat_guid(6), "0x0006"),  # A-law
], ids=["unknown_guid", "alaw"])
def test_extensible_wav_of_another_subformat_is_rejected(guid, message, tmp_path):
    frames, _, bits, width = encoded("int16", np.zeros((4, 1)))
    path = tmp_path / "other.wav"
    write_wav(path, 16000, frames, 1, bits, width, subformat=guid)
    with pytest.raises(ValueError, match="^unsupported/corrupt container: .*"
                                         f"Unknown wave file format: {message}"):
        load_audio(path)


def test_extensible_wav_without_its_extension_is_rejected(tmp_path):
    frames, tag, bits, width = encoded("int16", np.zeros((4, 1)))
    path = tmp_path / "short_extension.wav"
    write_wav(path, 16000, frames, tag, bits, width, subformat=subformat_guid(tag))
    wav = bytearray(path.read_bytes())
    wav[36:38] = struct.pack("<H", 21)  # cbSize, one byte short of the extension
    path.write_bytes(bytes(wav))
    with pytest.raises(ValueError, match="not compliant"):
        load_audio(path)


def test_rifx_wav_loads_bytes_and_rejects_wider_samples(tmp_path):
    noise = np.random.default_rng(4).uniform(-0.9, 0.9, size=(1000, 2))
    path = tmp_path / "rifx.wav"
    write_wav(path, 8000, *encoded("uint8", noise), riff=b"RIFX")
    assert load_audio(path).samples.tobytes() == scipy_samples(path).tobytes()
    write_wav(path, 8000, *encoded("int16", noise), riff=b"RIFX")
    with pytest.raises(ValueError, match="^unsupported sample encoding >i2 in "):
        load_audio(path)


def test_3_byte_pcm_is_read_one_block_of_windows_at_a_time(tmp_path, monkeypatch):
    config = FeatureConfig()
    noise = np.random.default_rng(6).uniform(-0.9, 0.9, size=(96000, 2))
    path = tmp_path / "pcm24.wav"
    write_wav(path, config.sample_rate, *encoded("int24", noise))
    counts, decode = [], features_module._int24

    def decoding(path, offset, count):
        counts.append(count)
        return decode(path, offset, count)

    monkeypatch.setattr(features_module, "_int24", decoding)
    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", 100)
    assert stream_features(path, config).matrix().n_segments == 591
    # 512 windows span 511 hops and a window: 83,360 of the 96,000 frames
    assert max(counts) == (511 * 160 + 1600) * 2


@pytest.mark.parametrize("noise_subtraction", [False, True])
def test_streamed_rows_equal_batch_when_resampled_or_floored(noise_subtraction,
                                                             tmp_path, monkeypatch):
    # a stream at another rate is resampled whole; the noise floor takes its
    # percentile over the energies of the whole stream
    config = FeatureConfig(noise_subtraction=noise_subtraction)
    path = tmp_path / "low.wav"
    save_audio(path, Waveform(
        np.random.default_rng(5).normal(size=11025) * 0.1, 11025))
    batch = featurize(load_audio(path), config).matrix()
    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", 64)
    streamed = stream_features(path, config).matrix()
    assert streamed.rows.tobytes() == batch.rows.tobytes()


def test_streamed_float_wav_rejects_non_finite_samples_up_front(tmp_path):
    noise = np.random.default_rng(2).uniform(-0.5, 0.5, size=(40000, 1))
    noise[-3] = np.nan
    path = tmp_path / "nan.wav"
    write_wav(path, 16000, *encoded("float32", noise))
    with pytest.raises(ValueError, match="non-finite"):
        stream_features(path, FeatureConfig())


@pytest.mark.parametrize("encoding", ["int16", "float32"])
def test_resampled_stream_parses_the_wav_once(encoding, tmp_path, monkeypatch):
    config = FeatureConfig()
    noise = np.random.default_rng(8).uniform(-0.5, 0.5, size=(22050, 1))
    path = tmp_path / "low.wav"
    write_wav(path, 11025, *encoded(encoding, noise))
    batch = featurize(load_audio(path), config).matrix()
    reads = recorded_reads(monkeypatch)
    streamed = stream_features(path, config).matrix()
    assert reads == ["header"]
    assert streamed.rows.tobytes() == batch.rows.tobytes()
    if encoding == "float32":
        noise[-3] = np.nan
        write_wav(path, 11025, *encoded(encoding, noise))
        with pytest.raises(ValueError, match="non-finite"):
            stream_features(path, config)
