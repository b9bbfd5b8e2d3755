# Adds the layer-trace harness to the repository's own CMake project.
# run.py passes this file as CMAKE_PROJECT_INCLUDE when it configures
# the repository. The target is created at the end of the top-level
# CMakeLists.txt, so it inherits the project's language standard and
# compile options and links the same libraries as the `wasabi` CLI.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_layer_trace)
    add_executable(wasabi_layer_trace ${PERFBENCH_DIR}/layer_trace.cc)
    target_link_libraries(wasabi_layer_trace PRIVATE
                          analyses wasabi_static wasabi_obs wasabi_serve
                          Threads::Threads)
endfunction()

cmake_language(DEFER CALL perfbench_add_layer_trace)
