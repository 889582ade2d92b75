# Smoke-checks the CLI observability surface: runs an mqd_cli
# subcommand with --metrics-json, then parses the emitted file with
# CMake's built-in JSON support and asserts the metric families that
# subcommand must have populated are present.
#
# Usage:
#   cmake -DCLI=<path/to/mqd_cli> -DINSTANCE=<instance.mqdp>
#         -DMODE=<solve|batch|stream> -DOUT=<metrics.json>
#         -P cli_metrics_check.cmake
cmake_minimum_required(VERSION 3.20)

foreach(var CLI INSTANCE MODE OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

if(MODE STREQUAL "solve")
  set(cmd "${CLI}" solve "${INSTANCE}" --algorithm scan+ --lambda 15
      --metrics-json "${OUT}")
  set(expected
      mqd_solver_solve_total
      mqd_solver_solve_seconds
      mqd_solver_cover_size
      mqd_solver_instance_posts)
elseif(MODE STREQUAL "batch")
  set(cmd "${CLI}" solve-batch "${INSTANCE}" "${INSTANCE}"
      --algorithm scan+ --lambdas 5,15 --threads 2 --metrics-json "${OUT}")
  set(expected
      mqd_batch_jobs_total
      mqd_batch_job_seconds
      mqd_batch_cover_size)
elseif(MODE STREQUAL "stream")
  set(cmd "${CLI}" stream "${INSTANCE}" --algorithm stream-scan+
      --lambda 15 --tau 5 --metrics-json "${OUT}")
  set(expected
      mqd_stream_replays_total
      mqd_stream_emissions_total
      mqd_stream_report_delay_seconds
      mqd_stream_replay_seconds)
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${cmd}' failed (rc=${rc}):\n${stdout}\n${stderr}")
endif()

file(READ "${OUT}" json)

# The document must parse and hold a non-empty "metrics" array.
string(JSON num_metrics ERROR_VARIABLE parse_error LENGTH "${json}" metrics)
if(parse_error)
  message(FATAL_ERROR "invalid metrics JSON in ${OUT}: ${parse_error}")
endif()
if(num_metrics EQUAL 0)
  message(FATAL_ERROR "metrics JSON in ${OUT} has an empty metrics array")
endif()

# Collect every sample's name; histograms must also carry a count.
set(names "")
math(EXPR last "${num_metrics} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${json}" metrics ${i} name)
  string(JSON type GET "${json}" metrics ${i} type)
  list(APPEND names "${name}")
  if(type STREQUAL "histogram")
    string(JSON count ERROR_VARIABLE count_error GET "${json}" metrics ${i}
           count)
    if(count_error)
      message(FATAL_ERROR "histogram ${name} lacks a count: ${count_error}")
    endif()
  endif()
endforeach()

foreach(name ${expected})
  if(NOT name IN_LIST names)
    message(FATAL_ERROR
        "metrics JSON for mode '${MODE}' is missing ${name}; got: ${names}")
  endif()
endforeach()

message(STATUS "mode '${MODE}': ${num_metrics} samples, all expected "
        "metric families present")
