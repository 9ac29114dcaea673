"""Simulator for electric-field control of a quantum dot in a three-contact
micropillar device: sheet/junction field solver, exciton fine-structure map,
polarization-scan synthesis and fitting, and bias-space tuning."""

__version__ = "0.1.0"

from .device import (
    DeviceGeometry,
    GeometryError,
    MaterialParams,
    Mesh,
    MeshError,
    generate_mesh,
    make_strip_mesh,
)
from .exciton import (
    AXIS_TOLERANCE_UEV,
    ExcitonParams,
    ExcitonState,
    algebraic_fss,
    exciton_state,
    fss_vector,
    stark_shift,
)
from .solver import (
    BiasPoint,
    ConvergenceError,
    FieldSolution,
    NumericalError,
    SheetSystem,
    SolverConfig,
    SolverError,
    classify_regime,
    diode_current_density,
)
from .spectro import (
    FitError,
    FitResult,
    PolarizationScan,
    ScanInputError,
    SpectrumModel,
    fit_fss_sine,
    peak_centroid,
    scan_from_csv,
    scan_to_csv,
    synth_polarization_scan,
)
from .tuner import (
    CellRecord,
    IsoFssPair,
    SweepResult,
    SweepSpec,
    TuneResult,
    find_zero_fss,
    iso_fss_points,
    read_sweep_csv,
    run_bias_sweep,
    write_sweep_csv,
    zero_bias_reference,
)
from .config import ConfigError, RunConfig, load_run_config, parse_config_text
