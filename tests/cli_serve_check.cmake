# Smoke-checks the serving daemon end to end over the stdio
# transport: writes a request script, pipes it through `mqd serve`,
# and asserts on both the per-request response lines (stdout) and the
# final "serve done:" summary (stderr).
#
# Three modes:
#   nominal  - default queue caps, no service floor: every request
#              must complete, zero sheds on either lane.
#   overload - one worker, batch queue cap 2, 20 ms service floor,
#              a 30-solve burst: the batch lane must shed (queue_full
#              with a retry-after hint) while the stream lane and the
#              final drain still answer cleanly.
#   tenant   - --tenant-mode with plain StreamScan: one subscribe
#              before the first post (shared per-label tier), two
#              after it (cluster tier), feed, finish; a feed after
#              finish must fail with FailedPrecondition while every
#              tenant's emissions still answer.
#
# Usage:
#   cmake -DCLI=<path/to/mqd_cli> -DINSTANCE=<instance.mqdp>
#         -DMODE=<nominal|overload|tenant> -DWORK=<scratch-dir>
#         -P cli_serve_check.cmake
cmake_minimum_required(VERSION 3.20)

foreach(var CLI INSTANCE MODE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK}")
set(script "${WORK}/serve_${MODE}.in")

if(MODE STREQUAL "nominal")
  # Feeds and solves interleaved; the trailing drain acts as a
  # barrier, so every earlier request is answered before shutdown.
  set(lines "")
  foreach(i RANGE 1 4)
    string(APPEND lines "f${i} feed posts=8\n")
    string(APPEND lines "s${i} solve lambda=15\n")
  endforeach()
  string(APPEND lines "p1 ping\nd1 drain\n")
  file(WRITE "${script}" "${lines}")
  set(cmd "${CLI}" serve "${INSTANCE}" --workers 2)
elseif(MODE STREQUAL "overload")
  # A burst far past what one worker at a 20 ms floor can absorb
  # before the 2-slot batch queue fills: sheds are guaranteed.
  set(lines "")
  foreach(i RANGE 1 30)
    string(APPEND lines "s${i} solve lambda=15\n")
  endforeach()
  string(APPEND lines "f1 feed posts=8\nd1 drain\n")
  file(WRITE "${script}" "${lines}")
  set(cmd "${CLI}" serve "${INSTANCE}" --workers 1 --queue-cap 2
      --service-floor-ms 20)
elseif(MODE STREQUAL "tenant")
  # The stream lane serves one request at a time in arrival order, so
  # tenant ids are 0, 1, 2 and the late feed lands after finish.
  file(WRITE "${script}"
       "t0 subscribe mask=3\n"
       "f1 feed posts=8\n"
       "t1 subscribe mask=1\n"
       "t2 subscribe mask=2\n"
       "f2 feed posts=40\n"
       "fin finish\n"
       "f3 feed posts=8\n"
       "e0 emissions tenant=0\n"
       "e1 emissions tenant=1\n"
       "e2 emissions tenant=2\n"
       "d1 drain\n")
  set(cmd "${CLI}" serve "${INSTANCE}" --workers 2 --tenant-mode
      --algorithm stream-scan)
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

execute_process(COMMAND ${cmd} INPUT_FILE "${script}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${cmd}' failed (rc=${rc}):\n${stdout}\n${stderr}")
endif()

if(NOT stderr MATCHES "serve done: stream ([0-9]+) completed / ([0-9]+) shed, batch ([0-9]+) completed / ([0-9]+) shed")
  message(FATAL_ERROR "no 'serve done:' summary on stderr:\n${stderr}")
endif()
set(stream_completed ${CMAKE_MATCH_1})
set(stream_shed ${CMAKE_MATCH_2})
set(batch_completed ${CMAKE_MATCH_3})
set(batch_shed ${CMAKE_MATCH_4})

# The stream lane outranks batch: it must never shed in either mode.
if(NOT stream_shed EQUAL 0)
  message(FATAL_ERROR
      "stream lane shed ${stream_shed} request(s) in mode '${MODE}':\n"
      "${stdout}\n${stderr}")
endif()

if(MODE STREQUAL "nominal")
  if(NOT batch_shed EQUAL 0)
    message(FATAL_ERROR
        "nominal load shed ${batch_shed} batch request(s):\n${stdout}")
  endif()
  # Every submitted request must have been answered with ok.
  foreach(id f1 f2 f3 f4 s1 s2 s3 s4 p1 d1)
    if(NOT stdout MATCHES "${id} ok")
      message(FATAL_ERROR "no ok response for '${id}':\n${stdout}")
    endif()
  endforeach()
elseif(MODE STREQUAL "tenant")
  foreach(id t0 f1 t1 t2 f2 fin e0 e1 e2 d1)
    if(NOT stdout MATCHES "${id} ok")
      message(FATAL_ERROR "no ok response for '${id}':\n${stdout}")
    endif()
  endforeach()
  if(NOT stdout MATCHES "f3 error FailedPrecondition")
    message(FATAL_ERROR
        "feed after finish did not fail with FailedPrecondition:\n"
        "${stdout}")
  endif()
else()
  if(batch_shed EQUAL 0)
    message(FATAL_ERROR
        "overload mode shed nothing (want > 0 batch sheds):\n"
        "${stdout}\n${stderr}")
  endif()
  # Shed responses carry the documented reason and a backoff hint.
  if(NOT stdout MATCHES "shed reason=queue_full retry_after_ms=[0-9.]+")
    message(FATAL_ERROR
        "no queue_full shed response with a retry hint:\n${stdout}")
  endif()
  # The stream feed and the drain still answer under overload.
  foreach(id f1 d1)
    if(NOT stdout MATCHES "${id} ok")
      message(FATAL_ERROR "no ok response for '${id}':\n${stdout}")
    endif()
  endforeach()
endif()

message(STATUS "mode '${MODE}': stream ${stream_completed}/${stream_shed} "
        "batch ${batch_completed}/${batch_shed} (completed/shed) — ok")
