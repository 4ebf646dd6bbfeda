# Bench binaries land in ${CMAKE_BINARY_DIR}/bench so that
#   for b in build/bench/*; do $b; done
# iterates over executables only. Reproduction benches print the paper's
# tables/figures; perf benches use google-benchmark.

function(emsentry_bench NAME)
  add_executable(${NAME} ${PROJECT_SOURCE_DIR}/bench/${NAME}.cpp)
  target_link_libraries(${NAME} PRIVATE emsentry::emsentry emsentry_warnings)
  set_target_properties(${NAME} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

function(emsentry_perf_bench NAME)
  emsentry_bench(${NAME})
  target_link_libraries(${NAME} PRIVATE benchmark::benchmark)
endfunction()

emsentry_bench(table1_trojan_sizes)
emsentry_bench(sec4b_snr_simulation)
emsentry_bench(sec4c_euclidean_distances)
emsentry_bench(fig4_a2_spectrum)
emsentry_bench(fig5_floorplan)
emsentry_bench(sec5a_snr_measured)
emsentry_bench(fig6_histograms)
emsentry_bench(fig6_spectra)
emsentry_bench(ablation_coil_geometry)
emsentry_bench(ablation_probe_distance)
emsentry_bench(ablation_pca_dims)
emsentry_bench(ablation_noise_sweep)
emsentry_bench(ablation_threshold)
emsentry_perf_bench(perf_pipeline)
emsentry_bench(perf_fleet_scale)
emsentry_bench(perf_array)
emsentry_bench(ablation_workload)
emsentry_bench(ext_roc_detection)
emsentry_bench(ext_baseline_ron)
emsentry_bench(ext_process_variation)
emsentry_bench(ext_sensor_tamper)
