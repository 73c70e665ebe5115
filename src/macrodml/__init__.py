"""Cross-fitted double machine learning for macro treatment effects on
fund-return panels."""

__version__ = "0.1.0"  # before the imports: cli records it in the manifest

from .cli import (
    PipelineConfig,
    config_from_json,
    emit_plots,
    main,
    run_pipeline,
)
from .dml import (
    DmlResult,
    LearnerSpec,
    NuisanceResiduals,
    PlrProblem,
    cross_fit_nuisance,
    encode_features,
    fit_nuisance_nosplit,
    plr_estimate,
    problem_from_panel,
    rescale_per_1pct,
    residual_diagnostics,
    run_dml,
    unit_blocked_split,
    wald_inference,
)
from .learners import (
    DEFAULT_GRID,
    CvRow,
    GbtModel,
    HyperParams,
    LinearModel,
    gbt_fit,
    grid_from_json,
    grid_search_cv,
    kfold_split,
    mse,
    ols_fit,
    predict,
    r2,
    staged_mse,
    train_test_folds,
)
from .panel_data import (
    FundFilter,
    FundMeta,
    PanelTable,
    TimeSeriesMatrix,
    common_range,
    filter_funds,
    load_fund_meta_csv,
    load_tscs_csv,
    month_range,
    to_panel,
    write_fund_meta_csv,
    write_tscs_csv,
)
from .plots import (
    render_corr_heatmap,
    render_residuals,
    render_scree,
)
from .preprocess import (
    AdfReport,
    CorrPcaReport,
    StationarityScreen,
    adf_critical_values,
    adf_test,
    correlation_matrix,
    difference_matrix,
    pca_corr,
    schwert_lag,
    screen_stationarity,
    select_lag_var_aic,
    unit_train_means,
)
from .synth import (
    SynthSpec,
    companion_spectral_radius,
    df_critical_values,
    gen_pipeline_fixture,
    gen_plr,
    gen_unit_root,
    gen_var,
)
from .validation import (
    CriterionResult,
    run_all,
)
